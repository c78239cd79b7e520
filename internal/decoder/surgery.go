package decoder

import (
	"fmt"

	"tiscc/internal/core"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// Lattice-surgery detector extraction. A merge/split cycle breaks the
// single-region assumption of memory experiments: stabilizer histories
// start, grow, shrink and retire as the patch geometry changes, so detectors
// must be stitched across region boundaries instead of read off one record
// table. The rules, per stabilizer history (identified by its plaquette
// face in absolute grid coordinates plus its type):
//
//   - pre-merge phases are ordinary memory prefixes: preparation time
//     boundaries for basis-type plaquettes, bulk detectors between
//     consecutive rounds;
//   - at the merge round, a plaquette with a pre-merge predecessor at the
//     same absolute face compares against it — this covers both unchanged
//     interior stabilizers and boundary stabilizers that grew by absorbing
//     seam qubits, because the seam is prepared in exactly the basis that
//     makes the grown operator's value equal its predecessor's;
//   - new plaquettes wholly inside the seam take a time-boundary detector
//     from the seam preparation alone;
//   - new seam-crossing plaquettes of the measured type are individually
//     random — their outcomes ARE the joint logical measurement — but their
//     product is fixed by the matching preparation, and compiles into one
//     merge-parity detector over every crossing first-round record;
//   - at the split, surviving stabilizers close over the transversal seam
//     measurement (the merged operator factors into the post-split operator
//     times the measured-out seam qubits), seam-only stabilizers close out
//     entirely, and crossing plaquettes retire into the observable (their
//     final parity is the logical datum the joint-parity observable reads,
//     so a "detector" there would erase the very quantity being protected);
//   - post-split phases end in readout time boundaries against the final
//     transversal data measurement, exactly like memory experiments.
//
// Everything downstream — detector-error-model compilation by Pauli-frame
// propagation, union-find decoding, DEM export — consumes the resulting
// Detectors unchanged: region awareness lives entirely in extraction.

// histKey identifies one stabilizer history across regions: the plaquette
// face in absolute grid coordinates (patch-relative faces from different
// patches collide) plus the stabilizer type.
type histKey struct {
	I, J int
	T    pauli.Kind
}

func keyOf(origin core.Cell, p *core.Plaquette) histKey {
	return histKey{I: origin.R + p.Face.I, J: origin.C + p.Face.J, T: p.Type}
}

func (k histKey) face() core.Face { return core.Face{I: k.I, J: k.J} }

// mergedHist is the merged-phase record chain of one stabilizer history,
// plus the seam cells its plaquette absorbed and whether a post-split
// successor consumed it.
type mergedHist struct {
	chain     []int32
	seamCells []core.Cell
	weight    int
	closed    bool
}

// chainOf collects one plaquette's record index across a region's rounds.
func chainOf(rounds []*core.RoundResult, p *core.Plaquette) ([]int32, error) {
	chain := make([]int32, len(rounds))
	for r, rr := range rounds {
		rec, ok := rr.Records[p.Face]
		if !ok {
			return nil, fmt.Errorf("decoder: plaquette %v missing from round %d of its region: %w",
				p.Face, r, ErrRoundMismatch)
		}
		chain[r] = rec
	}
	return chain, nil
}

// ExtractSurgery walks the per-region record tables of a compiled
// lattice-surgery experiment and emits its detector/observable structure
// under the region rules above. Every detector's reference value is read
// off the program's noiseless reference trace; planning a graph proves each
// detector deterministic, which rejects any mis-stitched region
// boundary outright.
func ExtractSurgery(s *verify.Surgery) (*Detectors, error) {
	if s.Prog == nil {
		return nil, fmt.Errorf("decoder: surgery experiment has no compiled program")
	}
	if s.Outcome.HasVirtual() {
		return nil, fmt.Errorf("decoder: outcome formula references virtual records")
	}
	if len(s.PreA) != s.Pre || len(s.PreB) != s.Pre {
		return nil, fmt.Errorf("decoder: surgery pre-phase has %d/%d recorded rounds, header says %d: %w",
			len(s.PreA), len(s.PreB), s.Pre, ErrRoundMismatch)
	}
	if len(s.MergedRounds) != s.Merge {
		return nil, fmt.Errorf("decoder: surgery merged phase has %d recorded rounds, header says %d: %w",
			len(s.MergedRounds), s.Merge, ErrRoundMismatch)
	}
	if len(s.PostA) != s.Post || len(s.PostB) != s.Post {
		return nil, fmt.Errorf("decoder: surgery post-phase has %d/%d recorded rounds, header says %d: %w",
			len(s.PostA), len(s.PostB), s.Post, ErrRoundMismatch)
	}
	if s.Merge < 1 || s.Post < 1 {
		return nil, fmt.Errorf("decoder: surgery extraction needs ≥ 1 merged and ≥ 1 post-split round")
	}
	d := &Detectors{
		Obs:      append([]int32(nil), s.Outcome.IDs...),
		ObsConst: s.Outcome.Const,
		ObsRef:   s.Reference,
		rounds:   s.Rounds(),
		basis:    s.Basis,
	}
	seam := make(map[core.Cell]bool, len(s.SeamRecords))
	for cell := range s.SeamRecords {
		seam[cell] = true
	}

	// Pre-merge phases: memory-style prefixes per patch.
	lastPre := map[histKey]int32{}
	for _, reg := range []struct {
		rounds []*core.RoundResult
		origin core.Cell
	}{{s.PreA, s.OriginA}, {s.PreB, s.OriginB}} {
		if s.Pre == 0 {
			continue
		}
		for _, p := range reg.rounds[0].Plaqs {
			key := keyOf(reg.origin, p)
			chain, err := chainOf(reg.rounds, p)
			if err != nil {
				return nil, err
			}
			if p.Type == s.Basis {
				d.Dets = append(d.Dets, Detector{Recs: chain[:1], Face: key.face(), Type: p.Type, Round: 0})
			}
			for r := 1; r < s.Pre; r++ {
				d.Dets = append(d.Dets, Detector{
					Recs: []int32{chain[r-1], chain[r]}, Face: key.face(), Type: p.Type, Round: r,
				})
			}
			if _, dup := lastPre[key]; dup {
				return nil, fmt.Errorf("decoder: duplicate pre-merge plaquette at %v", key)
			}
			lastPre[key] = chain[s.Pre-1]
		}
	}

	// Merged phase: stitch each history across the merge boundary.
	merged := map[histKey]*mergedHist{}
	var mergedKeys []histKey // deterministic iteration for the retirement pass
	var crossing []int32
	crossFace := core.Face{}
	for _, p := range s.MergedRounds[0].Plaqs {
		key := keyOf(s.OriginA, p) // the merged patch shares a's origin
		chain, err := chainOf(s.MergedRounds, p)
		if err != nil {
			return nil, err
		}
		mh := &mergedHist{chain: chain, weight: p.Weight()}
		for _, cell := range p.Cells() {
			if seam[cell] {
				mh.seamCells = append(mh.seamCells, cell)
			}
		}
		if _, dup := merged[key]; dup {
			return nil, fmt.Errorf("decoder: duplicate merged plaquette at %v", key)
		}
		merged[key] = mh
		mergedKeys = append(mergedKeys, key)
		if rec, ok := lastPre[key]; ok {
			// Continuing or grown stabilizer: the grown operator differs from
			// its predecessor only by seam qubits freshly prepared in the seam
			// basis, so consecutive outcomes still agree deterministically.
			d.Dets = append(d.Dets, Detector{
				Recs: []int32{rec, chain[0]}, Face: key.face(), Type: p.Type, Round: s.Pre,
			})
			delete(lastPre, key)
		} else {
			switch {
			case p.Type == s.Basis && len(mh.seamCells) > 0:
				// Crossing plaquette: its first outcome is one share of the
				// joint logical measurement; only the product is fixed.
				if len(crossing) == 0 {
					crossFace = key.face()
				}
				crossing = append(crossing, chain[0])
			case p.Type == s.SeamBasis && len(mh.seamCells) == mh.weight:
				// Wholly inside the seam: deterministic from the seam
				// preparation alone.
				d.Dets = append(d.Dets, Detector{Recs: chain[:1], Face: key.face(), Type: p.Type, Round: s.Pre})
			case s.Pre == 0 && p.Type == s.Basis:
				// No pre-phase: the transversal preparation is this history's
				// time boundary.
				d.Dets = append(d.Dets, Detector{Recs: chain[:1], Face: key.face(), Type: p.Type, Round: 0})
			case s.Pre == 0:
				// Opposite-type history with no pre-phase: random first value,
				// no boundary detector (as in memory experiments).
			default:
				return nil, fmt.Errorf("decoder: merged plaquette %v (%v) appeared without a predecessor",
					key.face(), p.Type)
			}
		}
		for r := 1; r < s.Merge; r++ {
			d.Dets = append(d.Dets, Detector{
				Recs: []int32{chain[r-1], chain[r]}, Face: key.face(), Type: p.Type, Round: s.Pre + r,
			})
		}
	}
	if len(crossing) == 0 {
		return nil, fmt.Errorf("decoder: merge produced no seam-crossing plaquettes")
	}
	// Every pre-merge history must have been consumed across the merge
	// boundary; a dangling chain means a mis-stitched merge (e.g. a
	// plaquette missing from the merged tables) that would otherwise weaken
	// the detector set silently.
	if len(lastPre) > 0 {
		var first histKey
		found := false
		//tiscc:nondeterministic explicit min-key scan: the guard makes the selected key independent of iteration order
		for key := range lastPre {
			if !found || key.I < first.I || (key.I == first.I && key.J < first.J) {
				first, found = key, true
			}
		}
		return nil, fmt.Errorf("decoder: %d pre-merge plaquette(s) have no merged successor (first: %v %v): %w",
			len(lastPre), first.face(), first.T, ErrRoundMismatch)
	}
	// The merge-parity detector: the product of every crossing first-round
	// outcome is the joint logical value, deterministic because the patches
	// were prepared in the measured basis. It is what makes a corrupted
	// joint measurement detectable rather than silently wrong.
	d.Dets = append(d.Dets, Detector{Recs: crossing, Face: crossFace, Type: s.Basis, Round: s.Pre})

	// Split boundary and post-split phases.
	seamRecsOf := func(mh *mergedHist) ([]int32, error) {
		out := make([]int32, 0, len(mh.seamCells))
		for _, cell := range mh.seamCells {
			rec, ok := s.SeamRecords[cell]
			if !ok {
				return nil, fmt.Errorf("decoder: seam cell %v has no split record", cell)
			}
			out = append(out, rec)
		}
		return out, nil
	}
	for _, reg := range []struct {
		rounds []*core.RoundResult
		origin core.Cell
	}{{s.PostA, s.OriginA}, {s.PostB, s.OriginB}} {
		for _, p := range reg.rounds[0].Plaqs {
			key := keyOf(reg.origin, p)
			chain, err := chainOf(reg.rounds, p)
			if err != nil {
				return nil, err
			}
			mh, ok := merged[key]
			if !ok || mh.closed {
				return nil, fmt.Errorf("decoder: post-split plaquette %v (%v) has no merged history",
					key.face(), p.Type)
			}
			mh.closed = true
			// Shrunk stabilizers fold the measured-out seam qubits' records in;
			// unchanged ones reduce to the plain consecutive-round detector.
			recs := []int32{mh.chain[s.Merge-1]}
			if len(mh.seamCells) > 0 {
				sr, err := seamRecsOf(mh)
				if err != nil {
					return nil, err
				}
				recs = append(recs, sr...)
			}
			recs = append(recs, chain[0])
			d.Dets = append(d.Dets, Detector{Recs: recs, Face: key.face(), Type: p.Type, Round: s.Pre + s.Merge})
			for r := 1; r < s.Post; r++ {
				d.Dets = append(d.Dets, Detector{
					Recs: []int32{chain[r-1], chain[r]}, Face: key.face(), Type: p.Type, Round: s.Pre + s.Merge + r,
				})
			}
			if p.Type == s.Basis {
				final := []int32{chain[s.Post-1]}
				for _, cell := range p.Cells() {
					rec, ok := s.DataRecords[cell]
					if !ok {
						return nil, fmt.Errorf("decoder: data cell %v of plaquette %v not measured", cell, key.face())
					}
					final = append(final, rec)
				}
				d.Dets = append(d.Dets, Detector{Recs: final, Face: key.face(), Type: p.Type, Round: s.Rounds()})
			}
		}
	}
	// Retired merged histories: seam-basis stabilizers close out against the
	// transversal seam measurement; crossing measured-type stabilizers retire
	// into the observable.
	for _, key := range mergedKeys {
		mh := merged[key]
		if mh.closed {
			continue
		}
		switch {
		case key.T == s.SeamBasis && len(mh.seamCells) == mh.weight:
			sr, err := seamRecsOf(mh)
			if err != nil {
				return nil, err
			}
			d.Dets = append(d.Dets, Detector{
				Recs: append([]int32{mh.chain[s.Merge-1]}, sr...),
				Face: key.face(), Type: key.T, Round: s.Pre + s.Merge,
			})
		case key.T == s.Basis && len(mh.seamCells) > 0:
			// Crossing history: its last-round parity is the joint logical
			// outcome the observable reads — not a detector.
		default:
			return nil, fmt.Errorf("decoder: merged plaquette %v (%v) retired without closure", key.face(), key.T)
		}
	}
	if err := d.referenceValues(s.Prog); err != nil {
		return nil, err
	}
	return d, nil
}
