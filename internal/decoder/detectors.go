// Package decoder turns per-shot syndrome history into corrected logical
// outcomes: the error-correction layer that converts the noisy sampler of
// internal/noise into a genuine surface-code resource estimator.
//
// Three layers mirror the standard detector-error-model pipeline of
// stabilizer samplers (Stim/PyMatching):
//
//   - detector extraction (Extract for memory experiments, ExtractSurgery
//     for lattice-surgery merge/split cycles): record tables — per-round
//     plaquette records, the final transversal data readout, and for
//     surgery the per-region histories plus seam records — are folded into
//     detectors, parity checks over records whose noiseless value is
//     deterministic, plus the logical observable's record set;
//   - decoding-graph construction (CompileGraph): one backward pass over
//     the lowered instruction stream, 64 detectors per lane group (Stim's
//     backward sensitivity propagation, noise.CompileEffects), yields the
//     effect table of a compiled noise Schedule — the detectors each fault
//     component flips and whether it flips the observable — and proves
//     every detector deterministic; each branch's mechanism, the XOR of its
//     components', compiles into a weighted matching graph, cached once per
//     (program, model) exactly like the fault schedule itself, whose
//     graphlike circuit distance Graph.Distance certifies;
//   - union-find decoding (Graph.DecodePlanes): per 64-shot batch of fault
//     firings, each detector's word is the XOR of the symptoms the graph's
//     retained effect table gives the fired branches — no record is read and no
//     instruction walked; lanes with an empty syndrome skip decoding, and
//     each other lane's fired detectors are clustered by
//     Delfosse–Nickerson-style growth with boundary absorption and peeled
//     for the correction's observable parity, with zero allocations in the
//     hot loop via pooled per-worker scratch state.
package decoder

import (
	"errors"
	"fmt"
	"slices"

	"tiscc/internal/core"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// ErrRoundMismatch reports an experiment whose record tables disagree with
// its round-count header (a truncated or hand-modified experiment). Both
// Extract and ExtractSurgery wrap it, so callers can errors.Is against it
// instead of string-matching.
var ErrRoundMismatch = errors.New("record tables mismatch the experiment's round counts")

// Detector is one parity check over measurement records whose value on a
// noiseless run is deterministic (Ref). A noisy shot fires the detector when
// the XOR of its records differs from Ref.
type Detector struct {
	Recs []int32    // record indices XORed by this detector
	Ref  bool       // deterministic noiseless value
	Face core.Face  // plaquette the detector compares (space coordinate)
	Type pauli.Kind // stabilizer type of the plaquette
	// Round is the detector's time coordinate: r compares syndrome rounds
	// r−1 and r (with round −1 the deterministic preparation layer folded
	// into round 0), and Round == rounds marks the final comparison against
	// the plaquette parity reconstructed from the transversal data readout.
	// For surgery experiments rounds are counted globally across the
	// pre-merge, merged and post-split phases, so Round == Pre marks the
	// merge boundary and Round == Pre+Merge the split boundary.
	Round int
}

// Detectors is the detector/observable structure of one compiled experiment
// (memory or lattice surgery): the full set of space-time parity checks
// plus the logical observable's record set. It is immutable after
// extraction and may be shared by any number of graphs and workers.
type Detectors struct {
	Dets []Detector
	// Obs is the record support of the logical observable; ObsConst is the
	// constant term of the readout formula and ObsRef the observable's
	// noiseless value (Memory.Reference).
	Obs      []int32
	ObsConst bool
	ObsRef   bool

	rounds int
	basis  pauli.Kind
}

// NumDetectors returns the number of detectors.
func (d *Detectors) NumDetectors() int { return len(d.Dets) }

// Rounds returns the syndrome-round count of the underlying experiment.
func (d *Detectors) Rounds() int { return d.rounds }

// observable returns the logical observable's readout formula.
func (d *Detectors) observable() expr.Expr {
	return expr.Expr{IDs: d.Obs, Const: d.ObsConst}
}

// CheckRecords reports an error unless every record id the detectors and
// the observable read lies in [0, n): the structure must pass it before it
// reads a batch of n record words (detectors decoded from the wire name
// arbitrary ids).
func (d *Detectors) CheckRecords(n int) error {
	if err := d.observable().CheckRecords(n); err != nil {
		return fmt.Errorf("decoder: observable: %w", err)
	}
	for i := range d.Dets {
		if err := (expr.Expr{IDs: d.Dets[i].Recs}).CheckRecords(n); err != nil {
			return fmt.Errorf("decoder: detector %d: %w", i, err)
		}
	}
	return nil
}

// Fire is the record-word detector kernel: given a batch's record words
// (frame.Batch.RecordWords, one per record id, bit i for lane i), it sets
// fired[i] (len(fired) ≥ NumDetectors) to the lanes on which detector i
// fires — Ref XORed with the words of its records, masked to lanes — and
// returns the lanes whose syndrome is non-empty. One XOR covers a whole
// 64-shot batch. Detector extraction checks its reference values through
// it, and the tests hold decoded batches' detector words (Planes.Dets)
// against it; decoded estimates never read records.
func (d *Detectors) Fire(words []uint64, lanes uint64, fired []uint64) (live uint64) {
	for i := range d.Dets {
		det := &d.Dets[i]
		var w uint64
		if det.Ref {
			w = ^w
		}
		for _, id := range det.Recs {
			w ^= words[id]
		}
		w &= lanes
		fired[i] = w
		live |= w
	}
	return live
}

// Syndrome appends the ids of the detectors one shot's record table fires
// — those whose record XOR differs from the deterministic reference — to
// buf in ascending order and returns it: the per-shot counterpart of Fire,
// for callers that hold a record map. With a caller-reused buf it does not
// allocate.
func (d *Detectors) Syndrome(records map[int32]bool, buf []int32) []int32 {
	for i := range d.Dets {
		det := &d.Dets[i]
		v := det.Ref
		for _, id := range det.Recs {
			if records[id] {
				v = !v
			}
		}
		if v {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// Extract walks the record tables of a compiled memory experiment and emits
// its detector/observable structure:
//
//   - for every plaquette whose type matches the memory basis (deterministic
//     from the transversal preparation), a time-boundary detector on its
//     first-round record, bulk detectors XORing consecutive rounds, and a
//     final detector XORing the last round against the plaquette parity
//     reconstructed from the transversal data measurements;
//   - for every plaquette of the opposite type (random first outcome, basis
//     not read out transversally), bulk detectors between consecutive rounds
//     only.
//
// Every detector's reference value is read from 64 noiseless lanes of the
// frame sampler on the program's shared reference trace, and must agree on
// all of them, which catches any non-deterministic parity combination — a
// compiler/decoder mismatch.
func Extract(mem *verify.Memory) (*Detectors, error) {
	if mem.Prog == nil {
		return nil, fmt.Errorf("decoder: memory experiment has no compiled program")
	}
	if mem.Outcome.HasVirtual() {
		return nil, fmt.Errorf("decoder: outcome formula references virtual records")
	}
	if len(mem.RoundRecords) != mem.Rounds {
		return nil, fmt.Errorf("decoder: memory experiment records %d rounds, header says %d: %w",
			len(mem.RoundRecords), mem.Rounds, ErrRoundMismatch)
	}
	d := &Detectors{
		Obs:      append([]int32(nil), mem.Outcome.IDs...),
		ObsConst: mem.Outcome.Const,
		ObsRef:   mem.Reference,
		rounds:   mem.Rounds,
		basis:    mem.Basis,
	}
	var plaqs []*core.Plaquette
	if mem.Rounds > 0 {
		plaqs = mem.RoundRecords[0].Plaqs
	}
	for _, p := range plaqs {
		chain := make([]int32, mem.Rounds)
		for r, rr := range mem.RoundRecords {
			rec, ok := rr.Records[p.Face]
			if !ok {
				return nil, fmt.Errorf("decoder: plaquette %v missing from round %d: %w", p.Face, r, ErrRoundMismatch)
			}
			chain[r] = rec
		}
		deterministic := p.Type == mem.Basis
		if deterministic {
			// Time boundary at preparation: the first round's outcome is
			// fixed by the transversal product state.
			d.Dets = append(d.Dets, Detector{
				Recs: chain[:1], Face: p.Face, Type: p.Type, Round: 0,
			})
		}
		for r := 1; r < mem.Rounds; r++ {
			d.Dets = append(d.Dets, Detector{
				Recs: []int32{chain[r-1], chain[r]},
				Face: p.Face, Type: p.Type, Round: r,
			})
		}
		if deterministic && mem.Rounds > 0 {
			// Time boundary at readout: the plaquette parity survives in the
			// transversal data measurements.
			recs := []int32{chain[mem.Rounds-1]}
			for _, cell := range p.Cells() {
				rec, ok := mem.DataRecords[cell]
				if !ok {
					return nil, fmt.Errorf("decoder: data cell %v of plaquette %v not measured", cell, p.Face)
				}
				recs = append(recs, rec)
			}
			d.Dets = append(d.Dets, Detector{
				Recs: recs, Face: p.Face, Type: p.Type, Round: mem.Rounds,
			})
		}
	}
	if err := d.referenceValues(mem.Prog, mem.Reference); err != nil {
		return nil, err
	}
	return d, nil
}

// referenceValues fills in each detector's deterministic noiseless value
// from 64 noiseless lanes of the frame sampler, each with its own
// measurement coins: lane 0 sets every Ref, and every detector must then be
// silent on all 64 lanes, which catches any non-deterministic parity
// combination (a compiler/decoder mismatch), and the observable must read
// wantObs on each.
func (d *Detectors) referenceValues(prog *orqcs.Program, wantObs bool) error {
	if err := d.CheckRecords(prog.NumRecords()); err != nil {
		return err
	}
	sim, err := frame.New(prog, nil)
	if err != nil {
		return err
	}
	b := sim.NewBatch()
	b.Run(0, 64, 2)
	words, lanes := b.RecordWords(), b.Planes().Lanes
	for i := range d.Dets {
		d.Dets[i].Ref = expr.Expr{IDs: d.Dets[i].Recs}.EvalWords(words)&1 == 1
	}
	fired := make([]uint64, len(d.Dets))
	if d.Fire(words, lanes, fired) != 0 {
		i := slices.IndexFunc(fired, func(w uint64) bool { return w != 0 })
		return fmt.Errorf("decoder: detector %d (%v round %d) is not deterministic", i, d.Dets[i].Face, d.Dets[i].Round)
	}
	want := uint64(0)
	if wantObs {
		want = lanes
	}
	if got := d.observable().EvalWords(words) & lanes; got != want {
		return fmt.Errorf("decoder: noiseless observable lanes %#x, reference says %v", got, wantObs)
	}
	return nil
}
