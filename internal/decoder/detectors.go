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
//     deterministic, plus the logical observable's record set; each
//     detector's reference value is read off the program's noiseless
//     reference trace (orqcs.Program.Reference), and no frame is walked;
//   - decoding-graph construction (CompileGraph): one backward pass over
//     the lowered instruction stream, 64 detectors per lane group (Stim's
//     backward sensitivity propagation, noise.CompileEffects), yields the
//     effect table of a compiled noise Schedule — the detectors each fault
//     component flips and whether it flips the observable — and proves
//     every detector and the observable deterministic, the one
//     determinism proof; each branch's mechanism, the XOR of its
//     components', compiles into a weighted matching graph, cached once
//     per (program, model) exactly like the fault schedule itself, whose
//     graphlike circuit distance Graph.Distance certifies and whose
//     Graph.WriteDEM exports the detector error model; Plans re-weighs a
//     kept graph plan across the noise points of a sweep;
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

	"tiscc/internal/core"
	"tiscc/internal/expr"
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

// Syndrome appends the ids of the detectors one shot's record table fires
// — those whose record XOR differs from the deterministic reference — to
// buf in ascending order and returns it, for callers that hold a record
// map. With a caller-reused buf it does not allocate.
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
// Every detector's reference value is read off the program's shared
// noiseless reference trace. Extraction does not prove the values
// deterministic: planning a graph (CompileGraph, Plans.Graph) runs the exact
// backward pass over the detectors before any use, and it rejects any non-deterministic parity
// combination — a compiler/decoder mismatch — by detector index.
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
	if err := d.referenceValues(mem.Prog); err != nil {
		return nil, err
	}
	return d, nil
}

// referenceValues checks the detectors' record ids against the program and
// sets each detector's Ref to its parity on the program's noiseless
// reference trace. It does not prove the parity deterministic: planning a
// graph, which every use of the detectors goes through, does that exactly
// (noise.CompileEffects).
func (d *Detectors) referenceValues(prog *orqcs.Program) error {
	if err := d.CheckRecords(prog.NumRecords()); err != nil {
		return err
	}
	ref, err := prog.Reference()
	if err != nil {
		return err
	}
	for i := range d.Dets {
		d.Dets[i].Ref = expr.Expr{IDs: d.Dets[i].Recs}.EvalWords(ref.Words)&1 == 1
	}
	return nil
}
