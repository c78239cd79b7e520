package decoder

import (
	"fmt"
	"slices"
	"testing"

	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// branch is one enumerated fault branch waiting for its lane in a sweep: the
// Pauli it deposits on Q1 (and Q2) immediately before instruction slot.
type branch struct {
	p              float64
	slot           int
	q1, q2         int32
	x1, z1, x2, z2 bool
}

// sweep is the 64-lane forward frame sweep the backward effect pass
// replaced, kept as its oracle: each of up to 64 fault branches owns one bit
// lane of the frame planes, its Pauli is XORed in when the sweep reaches its
// slot, and every Measure_Z XORs the measured qubit's X plane into the words
// of the detectors (and observable) containing its record. One pass over
// the instruction stream yields the symptoms of 64 branches, at a cost of
// O(branches/64 × instructions) word operations.
type sweep struct {
	instrs  []orqcs.Instr
	ix      map[int32][]int32 // record → the detectors (len(detW): the observable) reading it
	fx, fz  []uint64          // frame planes, bit i = lane i's X / Z on a qubit
	detW    []uint64          // bit i = lane i flips the detector
	hit     []bool            // detector is in touched
	touched []int32           // detectors with a word written this group
	dets    []int32           // per-lane symptom scratch handed to visit
}

// run sweeps one group of branches (sorted by slot, len ≤ 64) and visits
// the non-trivial ones in group order.
func (sw *sweep) run(group []branch, visit func(m noise.Mechanism) error) error {
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
			for _, di := range sw.ix[in.Rec] {
				if int(di) == len(sw.detW) {
					obsW ^= w
					continue
				}
				if !sw.hit[di] {
					sw.hit[di] = true
					sw.touched = append(sw.touched, di)
				}
				sw.detW[di] ^= w
			}
		case !orqcs.Conjugate(in, sw.fx, sw.fz):
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
		if err = visit(noise.Mechanism{P: group[l].p, Dets: sw.dets, Obs: obs}); err != nil {
			break
		}
	}
	for _, di := range sw.touched {
		sw.detW[di], sw.hit[di] = 0, false
	}
	sw.touched = sw.touched[:0]
	return err
}

// forEachMechanismForward is forEachMechanism on the forward sweep: every
// (fault, branch) in (slot, fault, branch) order, 64 branches per sweep.
func forEachMechanismForward(d *Detectors, s *noise.Schedule, visit func(m noise.Mechanism) error) error {
	prog := s.Program()
	ix := map[int32][]int32{}
	for i := range d.Dets {
		for _, rec := range d.Dets[i].Recs {
			ix[rec] = append(ix[rec], int32(i))
		}
	}
	for _, rec := range d.Obs {
		ix[rec] = append(ix[rec], int32(len(d.Dets)))
	}
	sw := &sweep{
		instrs: prog.Instructions(),
		ix:     ix,
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

// forEachMechanism is the production mechanism stream: the effect table of
// d over s (CompileGraph's), each branch's mechanism read off it in (slot,
// fault, branch) order.
func forEachMechanism(d *Detectors, s *noise.Schedule, visit func(m noise.Mechanism) error) error {
	g, err := CompileGraph(d, s)
	if err != nil {
		return err
	}
	return g.eff.EachMechanism(s, visit)
}

// collectMechanisms returns the mechanism stream of one enumerator, with
// each symptom copied out of the enumerator's scratch.
func collectMechanisms(t *testing.T, each func(*Detectors, *noise.Schedule, func(noise.Mechanism) error) error, d *Detectors, s *noise.Schedule) []noise.Mechanism {
	t.Helper()
	var out []noise.Mechanism
	if err := each(d, s, func(m noise.Mechanism) error {
		out = append(out, noise.Mechanism{P: m.P, Dets: slices.Clone(m.Dets), Obs: m.Obs})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackwardMatchesForwardSweep pins the backward effect pass against the
// forward sweep it replaced: the same mechanisms — probability, sorted
// detectors, observable flag — in the same order, on memory and surgery
// experiments under uniform depolarizing and the paper's Table 5 noise.
func TestBackwardMatchesForwardSweep(t *testing.T) {
	models := []noise.Model{noise.Depolarizing(1e-3), noise.PaperTable5(hardware.Default())}
	mems, surgs := []int{3, 5, 7, 9}, []int{3, 5}
	if testing.Short() {
		mems = []int{3, 5}
	}
	type tcase struct {
		name string
		prog *orqcs.Program
		det  *Detectors
	}
	var cases []tcase
	for _, d := range mems {
		mem := mustMemory(t, d, d, pauli.Z)
		cases = append(cases, tcase{fmt.Sprintf("memory-d%d", d), mem.Prog, mustDetectors(t, mem)})
	}
	for _, d := range surgs {
		s := mustSurgery(t, d, 1, d, 1, pauli.Z)
		cases = append(cases, tcase{fmt.Sprintf("surgery-d%d", d), s.Prog, mustSurgeryDetectors(t, s)})
	}
	// A lane group whose detectors see disjoint windows: only the first and
	// last rounds' detectors, no observable, so no qubit is sensitive
	// between them and the group must not leave the walk early.
	mem := mustMemory(t, 3, 6, pauli.Z)
	sparse := *mustDetectors(t, mem)
	sparse.Obs, sparse.Dets = nil, slices.DeleteFunc(slices.Clone(sparse.Dets), func(d Detector) bool { return d.Round != 0 && d.Round != 6 })
	cases = append(cases, tcase{"memory-d3-gapped", mem.Prog, &sparse})
	for _, c := range cases {
		for _, m := range models {
			t.Run(c.name+"/"+m.Name, func(t *testing.T) {
				sched := noise.Compile(m, c.prog)
				fwd := collectMechanisms(t, forEachMechanismForward, c.det, sched)
				bwd := collectMechanisms(t, forEachMechanism, c.det, sched)
				if len(fwd) == 0 {
					t.Fatal("forward sweep produced no mechanisms")
				}
				for i := range min(len(fwd), len(bwd)) {
					f, b := fwd[i], bwd[i]
					if f.P != b.P || f.Obs != b.Obs || !equalIDs(f.Dets, b.Dets) {
						t.Fatalf("mechanism %d: forward (p %g, %v, obs %v), backward (p %g, %v, obs %v)",
							i, f.P, f.Dets, f.Obs, b.P, b.Dets, b.Obs)
					}
				}
				if len(fwd) != len(bwd) {
					t.Fatalf("forward sweep yields %d mechanisms, backward pass %d", len(fwd), len(bwd))
				}
			})
		}
	}
}
