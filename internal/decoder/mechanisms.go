package decoder

import (
	"cmp"
	"fmt"
	"slices"

	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
)

// mechanism is one elementary error: a fault branch's probability, the
// detectors it flips (sorted) and whether it flips the logical observable.
type mechanism struct {
	p    float64
	dets []int32
	obs  bool
}

// branch is one enumerated fault branch waiting for its lane in a sweep: the
// Pauli it deposits on Q1 (and Q2) immediately before instruction slot.
type branch struct {
	p              float64
	slot           int
	q1, q2         int32
	x1, z1, x2, z2 bool
}

// symptomIndex is the dense measurement → symptom map of one (detectors,
// program) pair: for a Measure_Z at instruction slot i,
// dets[start[i]:start[i+1]] are the detectors whose record sets contain its
// record and obs[i] reports whether the record is in the observable's
// support. Built once per enumeration by sorted search, so the sweep never
// touches a map.
type symptomIndex struct {
	start []int32
	dets  []int32
	obs   []bool
}

func newSymptomIndex(d *Detectors, instrs []orqcs.Instr) *symptomIndex {
	type entry struct{ rec, det int32 }
	var byRec []entry
	for i := range d.Dets {
		for _, rec := range d.Dets[i].Recs {
			byRec = append(byRec, entry{rec, int32(i)})
		}
	}
	slices.SortStableFunc(byRec, func(a, b entry) int { return cmp.Compare(a.rec, b.rec) })
	obsRecs := slices.Sorted(slices.Values(d.Obs))
	ix := &symptomIndex{start: make([]int32, len(instrs)+1), obs: make([]bool, len(instrs))}
	for i := range instrs {
		if in := &instrs[i]; in.Op == orqcs.OpMeasureZ {
			j, _ := slices.BinarySearchFunc(byRec, in.Rec, func(e entry, rec int32) int { return cmp.Compare(e.rec, rec) })
			for ; j < len(byRec) && byRec[j].rec == in.Rec; j++ {
				ix.dets = append(ix.dets, byRec[j].det)
			}
			_, ix.obs[i] = slices.BinarySearch(obsRecs, in.Rec)
		}
		ix.start[i+1] = int32(len(ix.dets))
	}
	return ix
}

// sweep is the 64-lane forward frame sweep behind detector-error-model
// compilation (Stim's batched fault propagation, Gidney 2021): each of up
// to 64 fault branches owns one bit lane of the frame planes, its Pauli is
// XORed in when the sweep reaches its slot, and every Measure_Z XORs the
// measured qubit's X plane into the words of the detectors (and observable)
// containing its record. One pass over the instruction stream therefore
// yields the symptoms of 64 branches, at a cost of O(branches/64 ×
// instructions) word operations.
type sweep struct {
	instrs  []orqcs.Instr
	ix      *symptomIndex
	fx, fz  []uint64 // frame planes, bit i = lane i's X / Z on a qubit
	detW    []uint64 // bit i = lane i flips the detector
	hit     []bool   // detector is in touched
	touched []int32  // detectors with a word written this group
	dets    []int32  // per-lane symptom scratch handed to visit
}

// run sweeps one group of branches (sorted by slot, len ≤ 64) and visits
// the non-trivial ones in group order.
func (sw *sweep) run(group []branch, visit func(m mechanism) error) error {
	clear(sw.fx)
	clear(sw.fz)
	var obsW uint64
	next := 0
	for i := group[0].slot; i < len(sw.instrs); i++ {
		for ; next < len(group) && group[next].slot == i; next++ {
			b, bit := &group[next], uint64(1)<<uint(next)
			if b.x1 {
				sw.fx[b.q1] ^= bit
			}
			if b.z1 {
				sw.fz[b.q1] ^= bit
			}
			if b.x2 {
				sw.fx[b.q2] ^= bit
			}
			if b.z2 {
				sw.fz[b.q2] ^= bit
			}
		}
		in := &sw.instrs[i]
		switch {
		case in.Op == orqcs.OpPrepareZ:
			sw.fx[in.Q1], sw.fz[in.Q1] = 0, 0
		case in.Op == orqcs.OpMeasureZ:
			// A lane's record flips exactly when its frame carries X on the
			// measured qubit (the Stim-style frame gauge).
			w := sw.fx[in.Q1]
			if w == 0 {
				continue
			}
			for _, di := range sw.ix.dets[sw.ix.start[i]:sw.ix.start[i+1]] {
				if !sw.hit[di] {
					sw.hit[di] = true
					sw.touched = append(sw.touched, di)
				}
				sw.detW[di] ^= w
			}
			if sw.ix.obs[i] {
				obsW ^= w
			}
		case !frame.Conjugate(in, sw.fx, sw.fz):
			panic(fmt.Sprintf("decoder: non-Clifford opcode %d in frame propagation", in.Op))
		}
	}
	// Sorting the group's touched list once makes every lane's symptom come
	// out sorted.
	slices.Sort(sw.touched)
	var err error
	for l := range group {
		bit := uint64(1) << uint(l)
		sw.dets = sw.dets[:0]
		for _, di := range sw.touched {
			if sw.detW[di]&bit != 0 {
				sw.dets = append(sw.dets, di)
			}
		}
		obs := obsW&bit != 0
		if len(sw.dets) == 0 && !obs {
			continue
		}
		if err = visit(mechanism{p: group[l].p, dets: sw.dets, obs: obs}); err != nil {
			break
		}
	}
	for _, di := range sw.touched {
		sw.detW[di], sw.hit[di] = 0, false
	}
	sw.touched = sw.touched[:0]
	return err
}

// forEachMechanism enumerates every (fault, branch) of the schedule in
// (slot, fault, branch) order, skipping branches with p ≤ 0, propagates
// each to its detector symptom — 64 branches per forward sweep — and hands
// the resulting mechanism to visit. Branches with empty symptom and no
// observable effect are skipped. The dets slice passed to visit is only
// valid during the call.
func forEachMechanism(d *Detectors, s *noise.Schedule, visit func(m mechanism) error) error {
	prog := s.Program()
	if !prog.Clifford() {
		return fmt.Errorf("decoder: schedule program contains non-Clifford gates")
	}
	instrs := prog.Instructions()
	sw := &sweep{
		instrs: instrs,
		ix:     newSymptomIndex(d, instrs),
		fx:     make([]uint64, prog.NumQubits()),
		fz:     make([]uint64, prog.NumQubits()),
		detW:   make([]uint64, len(d.Dets)),
		hit:    make([]bool, len(d.Dets)),
	}
	group := make([]branch, 0, 64)
	for slot := 0; slot < s.NumSlots(); slot++ {
		for _, f := range s.SlotFaults(slot) {
			for b := 0; b < f.NumBranches(); b++ {
				p, x1, z1, x2, z2 := f.Branch(b)
				if p <= 0 {
					continue
				}
				group = append(group, branch{p: p, slot: slot, q1: f.Q1, q2: f.Q2, x1: x1, z1: z1, x2: x2, z2: z2})
				if len(group) == cap(group) {
					if err := sw.run(group, visit); err != nil {
						return err
					}
					group = group[:0]
				}
			}
		}
	}
	if len(group) == 0 {
		return nil
	}
	return sw.run(group, visit)
}

// Mechanism is the public view of one elementary error mechanism: a fault
// branch's firing probability, the sorted detector ids it flips, and whether
// it flips the logical observable. It is the unit the diagnostics layer
// consumes for DEM-predicted detector statistics.
type Mechanism struct {
	P    float64
	Dets []int32 // sorted; aliases internal scratch, valid only during visit
	Obs  bool
}

// ForEachMechanism enumerates every (fault, branch) of the schedule compiled
// against the detector structure, propagating the branches through the
// lowered instruction stream as 64-lane Pauli frames and handing each
// resulting mechanism to visit. Branches with empty symptom and no
// observable effect are skipped. The Dets slice passed to visit is only
// valid during the call.
func ForEachMechanism(d *Detectors, s *noise.Schedule, visit func(m Mechanism) error) error {
	return forEachMechanism(d, s, func(m mechanism) error {
		return visit(Mechanism{P: m.p, Dets: m.dets, Obs: m.obs})
	})
}

// PredictedDetectorRates returns, per detector, the fire probability the
// detector error model predicts: the odd-fire combination (p ⊕ q = p + q −
// 2pq) of every mechanism whose symptom contains the detector, mechanisms
// treated as independent — exactly the marginal a calibrated sampler should
// reproduce. The Stim-style calibration check compares these against
// observed per-shot fire rates.
func PredictedDetectorRates(d *Detectors, s *noise.Schedule) ([]float64, error) {
	rates := make([]float64, len(d.Dets))
	err := forEachMechanism(d, s, func(m mechanism) error {
		for _, di := range m.dets {
			rates[di] = mergeP(rates[di], m.p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rates, nil
}
