package decoder

import (
	"cmp"
	"fmt"
	"math/bits"
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

// symptomIndex is the dense measurement → symptom map of one (detectors,
// program) pair: for a Measure_Z at instruction slot i, of(i) lists the
// detectors whose record sets contain its record, with id len(d.Dets)
// standing for the logical observable. Built once per enumeration by sorted
// search, so the backward pass never touches a map.
type symptomIndex struct {
	start []int32
	dets  []int32
}

func newSymptomIndex(d *Detectors, instrs []orqcs.Instr) *symptomIndex {
	type entry struct{ rec, det int32 }
	var byRec []entry
	for i := range d.Dets {
		for _, rec := range d.Dets[i].Recs {
			byRec = append(byRec, entry{rec, int32(i)})
		}
	}
	for _, rec := range d.Obs {
		byRec = append(byRec, entry{rec, int32(len(d.Dets))})
	}
	// Ties in rec keep append order, which is ascending det.
	slices.SortFunc(byRec, func(a, b entry) int { return cmp.Or(cmp.Compare(a.rec, b.rec), cmp.Compare(a.det, b.det)) })
	ix := &symptomIndex{start: make([]int32, len(instrs)+1)}
	for i := range instrs {
		if in := &instrs[i]; in.Op == orqcs.OpMeasureZ {
			j, _ := slices.BinarySearchFunc(byRec, in.Rec, func(e entry, rec int32) int { return cmp.Compare(e.rec, rec) })
			for ; j < len(byRec) && byRec[j].rec == in.Rec; j++ {
				ix.dets = append(ix.dets, byRec[j].det)
			}
		}
		ix.start[i+1] = int32(len(ix.dets))
	}
	return ix
}

// of returns the symptom of instruction i: empty unless it is a Measure_Z.
func (ix *symptomIndex) of(i int) []int32 { return ix.dets[ix.start[i]:ix.start[i+1]] }

// effect is one nonzero entry of the backward pass: bit l of word is set
// when the branch flips lane l of the lane group.
type effect struct {
	branch, group int32
	word          uint64
}

// effectTable is the compiled effect of every fault branch of one
// (detectors, schedule) pair. Branch ids number the schedule's (slot,
// fault, branch) triples in that order: slot s owns ids [base[s],
// base[s+1]) and a fault's branches are consecutive in Fault.Branch order,
// the order the noise package's fault replay reports them in. The table is a
// CSR over branch ids: branch b's nonzero lane-group words are
// ent[start[b]:start[b+1]], and lane l of group g stands for detector
// lanes[64g+l], where detector id obs is the logical observable.
type effectTable struct {
	base  []int32
	start []int32
	ent   []effect
	lanes []int32
	obs   int32
}

// laneEvent is one measurement a lane group reads: the Measure_Z at
// instruction instr and the group lanes whose detectors contain its record.
type laneEvent struct {
	instr int32
	word  uint64
}

// laneGroup is the backward-pass state of up to 64 detector lanes: sx[q] /
// sz[q] hold the lanes an X / Z error on qubit q would flip at the current
// point of the walk, evs the group's measurements (ascending, consumed from
// the end) and live the number of qubits with a nonzero plane.
type laneGroup struct {
	id     int32
	sx, sz []uint64
	evs    []laneEvent
	live   int
}

// compileEffects runs the backward sensitivity pass behind
// detector-error-model compilation (Stim's backward propagation, Gidney
// 2021). Each detector — and the observable — owns one bit lane of a
// 64-lane group, and the instruction stream is walked once in reverse. A
// Measure_Z XORs its record's lanes into the X plane, a Prepare_Z clears its
// qubit, and a unitary maps the planes by the transpose of its forward
// action, which is frame.Conjugate with the planes swapped. At each slot a
// branch's effect word is the XOR of the planes its Pauli touches. Lanes are
// assigned in order of their last record's instruction, so a group's
// detectors share a window of rounds: the group joins the walk at its last
// measurement and leaves it once it has passed its first one with no qubit
// left sensitive. The cost is O(instructions × groups in flight) word
// operations plus one per (branch, group in flight), and the walk emits
// entries in descending (branch, group) order, so one reversal sorts the
// table.
func compileEffects(d *Detectors, s *noise.Schedule) (*effectTable, error) {
	prog := s.Program()
	if !prog.Clifford() {
		return nil, fmt.Errorf("decoder: schedule program contains non-Clifford gates")
	}
	instrs := prog.Instructions()
	ix := newSymptomIndex(d, instrs)
	t := &effectTable{obs: int32(len(d.Dets)), base: make([]int32, s.NumSlots()+1)}
	for slot := 0; slot < s.NumSlots(); slot++ {
		n := int32(0)
		for _, f := range s.SlotFaults(slot) {
			n += int32(f.NumBranches())
		}
		t.base[slot+1] = t.base[slot] + n
	}

	// Lane assignment: detectors (and the observable) sorted by the
	// instruction of their last record; ones no measurement reads get none.
	last := make([]int32, len(d.Dets)+1)
	for i := range last {
		last[i] = -1
	}
	for i := range instrs {
		for _, di := range ix.of(i) {
			last[di] = int32(i)
		}
	}
	for i := range last {
		if last[i] >= 0 {
			t.lanes = append(t.lanes, int32(i))
		}
	}
	// Ties in last keep append order, which is ascending detector.
	slices.SortFunc(t.lanes, func(a, b int32) int { return cmp.Or(cmp.Compare(last[a], last[b]), cmp.Compare(a, b)) })
	laneOf := last // reused: detector → lane
	for l, di := range t.lanes {
		laneOf[di] = int32(l)
	}
	nq := prog.NumQubits()
	groups := make([]laneGroup, (len(t.lanes)+63)/64)
	planes := make([]uint64, 2*nq*len(groups))
	for g := range groups {
		groups[g] = laneGroup{id: int32(g), sx: planes[2*g*nq : (2*g+1)*nq], sz: planes[(2*g+1)*nq : (2*g+2)*nq]}
	}
	for i := range instrs {
		for _, di := range ix.of(i) {
			l := laneOf[di]
			g := &groups[l/64]
			g.evs = append(g.evs, laneEvent{instr: int32(i), word: 1 << uint(l%64)})
		}
	}

	// A group's last measurement is its last lane's record, so groups join
	// in descending order and active stays sorted by descending group.
	nb := t.base[len(t.base)-1]
	// Memory experiments at d=5..13 produce 1.1–1.7 entries per branch;
	// presizing keeps the multi-megabyte table from being regrown.
	t.ent = make([]effect, 0, 2*nb)
	var active []*laneGroup
	join := len(groups) - 1
	for i := len(instrs) - 1; i >= 0 && (join >= 0 || len(active) > 0); i-- {
		for ; join >= 0 && int(groups[join].evs[len(groups[join].evs)-1].instr) >= i; join-- {
			active = append(active, &groups[join])
		}
		in := &instrs[i]
		for _, g := range active {
			g.step(in, i)
		}
		active = slices.DeleteFunc(active, func(g *laneGroup) bool { return g.live == 0 && len(g.evs) == 0 })
		t.ent = appendSlotEffects(t.ent, s.SlotFaults(i), t.base[i+1], active)
	}
	slices.Reverse(t.ent)
	t.start = make([]int32, nb+1)
	for _, e := range t.ent {
		t.start[e.branch+1]++
	}
	for b := int32(0); b < nb; b++ {
		t.start[b+1] += t.start[b]
	}
	return t, nil
}

// step walks the group backward over instruction i, keeping live current.
func (g *laneGroup) step(in *orqcs.Instr, i int) {
	q := in.Q1
	was := g.nz(q)
	switch {
	case in.Op == orqcs.OpMeasureZ:
		for k := len(g.evs) - 1; k >= 0 && int(g.evs[k].instr) == i; k-- {
			g.sx[q] ^= g.evs[k].word
			g.evs = g.evs[:k]
		}
	case in.Op == orqcs.OpPrepareZ:
		g.sx[q], g.sz[q] = 0, 0
	case in.Op == orqcs.OpZZ:
		was2 := g.nz(in.Q2)
		frame.Conjugate(in, g.sz, g.sx)
		g.live += g.nz(in.Q2) - was2
	case !frame.Conjugate(in, g.sz, g.sx):
		panic(fmt.Sprintf("decoder: non-Clifford opcode %d in frame propagation", in.Op))
	}
	g.live += g.nz(q) - was
}

// nz is 1 when an error on qubit q would flip some lane of the group, else 0.
func (g *laneGroup) nz(q int32) int {
	if g.sx[q]|g.sz[q] != 0 {
		return 1
	}
	return 0
}

// appendSlotEffects appends the nonzero effect words of one slot's fault
// branches in descending (branch, group) order; end is the branch id just
// past the slot and active the groups in flight, by descending id.
func appendSlotEffects(ent []effect, faults []noise.Fault, end int32, active []*laneGroup) []effect {
	id := end
	for fi := len(faults) - 1; fi >= 0; fi-- {
		f := &faults[fi]
		n := int32(f.NumBranches())
		id -= n
		for b := n - 1; b >= 0; b-- {
			_, x1, z1, x2, z2 := f.Branch(int(b))
			for _, g := range active {
				var w uint64
				if x1 {
					w ^= g.sx[f.Q1]
				}
				if z1 {
					w ^= g.sz[f.Q1]
				}
				if x2 {
					w ^= g.sx[f.Q2]
				}
				if z2 {
					w ^= g.sz[f.Q2]
				}
				if w != 0 {
					ent = append(ent, effect{branch: id + b, group: g.id, word: w})
				}
			}
		}
	}
	return ent
}

// effect appends the sorted detectors branch id flips to buf and reports
// whether it flips the observable.
func (t *effectTable) effect(id int32, buf []int32) ([]int32, bool) {
	obs := false
	for _, e := range t.ent[t.start[id]:t.start[id+1]] {
		for w := e.word; w != 0; w &= w - 1 {
			di := t.lanes[int(e.group)*64+bits.TrailingZeros64(w)]
			if di == t.obs {
				obs = true
			} else {
				buf = append(buf, di)
			}
		}
	}
	slices.Sort(buf)
	return buf, obs
}

// forEachMechanism enumerates every (fault, branch) of the schedule in
// (slot, fault, branch) order, skipping branches with p ≤ 0, looks up each
// branch's symptom in the effect table of one backward pass
// (compileEffects) and hands the resulting mechanism to visit. Branches
// with empty symptom and no observable effect are skipped. The dets slice
// passed to visit is only valid during the call. When sym is non-nil the
// same loop fills it with every fault site's component symptoms, the
// symptoms of its single-component branches, so a graph keeps its effect
// table with no second pass.
func forEachMechanism(d *Detectors, s *noise.Schedule, sym *symptoms, visit func(m mechanism) error) error {
	t, err := compileEffects(d, s)
	if err != nil {
		return err
	}
	if sym != nil {
		comps := 0
		for k := range s.NumFaultSites() {
			comps += int(kindComps[s.SiteFault(k).Kind])
		}
		sym.init(s.NumFaultSites(), comps)
	}
	var dets []int32
	for slot := 0; slot < s.NumSlots(); slot++ {
		id := t.base[slot]
		for _, f := range s.SlotFaults(slot) {
			for b := 0; b < f.NumBranches(); b, id = b+1, id+1 {
				p, _, _, _, _ := f.Branch(b)
				component := sym != nil && bits.OnesCount8(branchPaulis[f.Kind][b]) == 1
				if p <= 0 || t.start[id] == t.start[id+1] {
					if component {
						sym.add(nil, false) // empty, or a p ≤ 0 branch that never fires
					}
					continue
				}
				var obs bool
				dets, obs = t.effect(id, dets[:0])
				if component {
					sym.add(dets, obs)
				}
				if err := visit(mechanism{p: p, dets: dets, obs: obs}); err != nil {
					return err
				}
			}
			if sym != nil {
				sym.addSite(f.Kind)
			}
		}
	}
	if sym != nil {
		sym.dets = slices.Clone(sym.dets) // trimmed: the table lives as long as the graph
	}
	return nil
}

// PredictedDetectorRates returns, per detector, the fire probability the
// detector error model predicts: the odd-fire combination (p ⊕ q = p + q −
// 2pq) of every mechanism whose symptom contains the detector, mechanisms
// treated as independent — exactly the marginal a calibrated sampler should
// reproduce. The Stim-style calibration check compares these against
// observed per-shot fire rates.
func PredictedDetectorRates(d *Detectors, s *noise.Schedule) ([]float64, error) {
	rates := make([]float64, len(d.Dets))
	err := forEachMechanism(d, s, nil, func(m mechanism) error {
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
