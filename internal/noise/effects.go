package noise

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"tiscc/internal/orqcs"
	"tiscc/internal/wire"
)

// Effects is the fault-effect table of a schedule against a list of
// record-parity checks (a decoder's detectors) and one observable (the
// logical outcome): which checks each fault branch flips, and whether it
// flips the observable. A fault's branches are products of up to four
// Pauli components — X and Z on each operand — and the effect of a Pauli is
// linear in it, so a branch's effect is the XOR of its components' effects:
// the table keeps one symptom per component, not per branch. Fault site k
// has kind kind[k] and owns component ids comp[k]..comp[k+1], its
// single-component branches in branch order (compOf numbers them);
// component c flips the checks dets[start[c]:start[c+1]], ascending, and the
// observable when bit c of obs is set.
//
// A sampled batch reads it in place of records: a lane's check words and
// observable flip are the XOR of the symptoms of the components of the
// branches it fired (Fire; Stim's detector sampling, Gidney 2021). Every
// check and the observable are deterministic on a noiseless run
// (CompileEffects verifies it), so that XOR is exactly what the records
// would say. An Effects is immutable and safe for concurrent use.
type Effects struct {
	checks int
	kind   []FaultKind
	comp   []int32
	start  []int32
	dets   []int32
	obs    []uint64
}

// branchPaulis[k][b] is branch b of a kind-k fault as a component mask
// (bit 0 X on Q1, bit 1 Z on Q1, bit 2 X on Q2, bit 3 Z on Q2), compOf[k][i]
// the index among a kind-k site's components of component i (the rank of
// the branch that is component i alone among the site's single-component
// branches), compBranch[k][j] the branch that is the site's component j
// alone and kindComps[k] their number. All four come from Fault.Branch, the
// one fault-branch mapping; every component a branch uses is also a branch
// of its own.
var branchPaulis, compOf, compBranch, kindComps = func() (branch [NumFaultKinds][16]uint8, comp, cb [NumFaultKinds][4]uint8, n [NumFaultKinds]uint8) {
	for k := range FaultKind(NumFaultKinds) {
		f := Fault{Kind: k}
		for b := range f.NumBranches() {
			_, x1, z1, x2, z2 := f.Branch(b)
			var m uint8
			for i, on := range [4]bool{x1, z1, x2, z2} {
				if on {
					m |= 1 << i
				}
			}
			branch[k][b] = m
			if bits.OnesCount8(m) == 1 {
				comp[k][bits.TrailingZeros8(m)] = n[k]
				cb[k][n[k]] = uint8(b)
				n[k]++
			}
		}
	}
	return branch, comp, cb, n
}()

// recordIndex is the dense measurement → check map of one (checks,
// program) pair: for a Measure_Z at instruction slot i, of(i) lists the
// checks whose record sets contain its record, with id len(checks)
// standing for the observable. Built once by sorted search, so the
// backward pass never touches a map.
type recordIndex struct {
	start []int32
	ids   []int32
}

func newRecordIndex(checks [][]int32, obs []int32, instrs []orqcs.Instr) *recordIndex {
	type entry struct{ rec, id int32 }
	var byRec []entry
	for i, recs := range checks {
		for _, rec := range recs {
			byRec = append(byRec, entry{rec, int32(i)})
		}
	}
	for _, rec := range obs {
		byRec = append(byRec, entry{rec, int32(len(checks))})
	}
	// Ties in rec keep append order, which is ascending id.
	slices.SortFunc(byRec, func(a, b entry) int { return cmp.Or(cmp.Compare(a.rec, b.rec), cmp.Compare(a.id, b.id)) })
	ix := &recordIndex{start: make([]int32, len(instrs)+1)}
	for i := range instrs {
		if in := &instrs[i]; in.Op == orqcs.OpMeasureZ {
			j, _ := slices.BinarySearchFunc(byRec, in.Rec, func(e entry, rec int32) int { return cmp.Compare(e.rec, rec) })
			for ; j < len(byRec) && byRec[j].rec == in.Rec; j++ {
				ix.ids = append(ix.ids, byRec[j].id)
			}
		}
		ix.start[i+1] = int32(len(ix.ids))
	}
	return ix
}

// of returns the checks instruction i's record enters: empty unless it is a
// Measure_Z.
func (ix *recordIndex) of(i int) []int32 { return ix.ids[ix.start[i]:ix.start[i+1]] }

// laneEvent is one measurement a lane group reads: the Measure_Z at
// instruction instr and the group lanes whose checks contain its record.
type laneEvent struct {
	instr int32
	word  uint64
}

// laneGroup is the backward-pass state of up to 64 check lanes: sx[q] /
// sz[q] hold the lanes an X / Z error on qubit q would flip at the current
// point of the walk, evs the group's measurements (ascending, consumed from
// the end) and live the number of qubits with a nonzero plane.
type laneGroup struct {
	id     int32
	sx, sz []uint64
	evs    []laneEvent
	live   int
}

// CompileEffects runs the backward sensitivity pass (Stim's backward
// propagation, Gidney 2021) of the checks and the observable over s's
// program and returns their effect table. Each check — and the observable
// — owns one bit lane of a 64-lane group, and the instruction stream is
// walked once in reverse. A Measure_Z XORs its record's lanes into the X
// plane, a Prepare_Z clears its qubit, and a unitary maps the planes by the
// transpose of its forward action, which is orqcs.Conjugate with the planes
// swapped. At each slot a fault component's symptom is the plane word its
// Pauli touches. Lanes are assigned in order of their last record's
// instruction, so a group's checks share a window of rounds: the group
// joins the walk at its last measurement and leaves it once it has passed
// its first one with no qubit left sensitive. The cost is O(instructions ×
// groups in flight) word operations plus one per (component, group in
// flight).
//
// The same walk proves every check deterministic on a noiseless run: a
// lane that an X or Y on the measured qubit would flip — one whose parity
// anticommutes with a Z measurement, a Z reset or, at the start, the
// initial |0⟩ state — reads a random outcome, and the pass returns an
// error naming it. Record ids no Measure_Z writes contribute nothing.
func CompileEffects(s *Schedule, checks [][]int32, obs []int32) (*Effects, error) {
	prog := s.prog
	if !prog.Clifford() {
		return nil, fmt.Errorf("noise: schedule program contains non-Clifford gates")
	}
	instrs := prog.Instructions()
	ix := newRecordIndex(checks, obs, instrs)
	obsID := int32(len(checks))
	e := &Effects{checks: len(checks), kind: make([]FaultKind, len(s.faults)), comp: make([]int32, len(s.faults)+1)}
	for k := range s.faults {
		e.kind[k] = s.faults[k].Kind
		e.comp[k+1] = e.comp[k] + int32(kindComps[e.kind[k]])
	}
	nc := e.comp[len(s.faults)]
	e.obs = make([]uint64, (nc+63)/64)
	// start[c+1] counts component c's checks until the prefix sum at the end.
	e.start = make([]int32, nc+1)

	// Lane assignment: checks (and the observable) sorted by the
	// instruction of their last record; ones no measurement reads get none.
	last := make([]int32, len(checks)+1)
	for i := range last {
		last[i] = -1
	}
	for i := range instrs {
		for _, id := range ix.of(i) {
			last[id] = int32(i)
		}
	}
	var lanes []int32
	for i := range last {
		if last[i] >= 0 {
			lanes = append(lanes, int32(i))
		}
	}
	// Ties in last keep append order, which is ascending id.
	slices.SortFunc(lanes, func(a, b int32) int { return cmp.Or(cmp.Compare(last[a], last[b]), cmp.Compare(a, b)) })
	laneOf := last // reused: check → lane
	for l, id := range lanes {
		laneOf[id] = int32(l)
	}
	nq := prog.NumQubits()
	groups := make([]laneGroup, (len(lanes)+63)/64)
	planes := make([]uint64, 2*nq*len(groups))
	for g := range groups {
		groups[g] = laneGroup{id: int32(g), sx: planes[2*g*nq : (2*g+1)*nq], sz: planes[(2*g+1)*nq : (2*g+2)*nq]}
	}
	for i := range instrs {
		for _, id := range ix.of(i) {
			l := laneOf[id]
			g := &groups[l/64]
			g.evs = append(g.evs, laneEvent{instr: int32(i), word: 1 << uint(l%64)})
		}
	}
	// nondeterministic names the first lane of word w of group g.
	nondeterministic := func(g *laneGroup, w uint64, what string) error {
		id := lanes[int(g.id)*64+bits.TrailingZeros64(w)]
		name := fmt.Sprintf("check %d", id)
		if id == obsID {
			name = "the observable"
		}
		return fmt.Errorf("noise: %s is not deterministic: its parity anticommutes with %s", name, what)
	}

	// A group's last measurement is its last lane's record, so groups join
	// in descending order and active stays sorted by descending group. The
	// walk emits components in descending order, each one's checks
	// descending, so one reversal sorts the table.
	var rev []int32
	var active []*laneGroup
	join := len(groups) - 1
	for i := len(instrs) - 1; i >= 0 && (join >= 0 || len(active) > 0); i-- {
		for ; join >= 0 && int(groups[join].evs[len(groups[join].evs)-1].instr) >= i; join-- {
			active = append(active, &groups[join])
		}
		in := &instrs[i]
		for _, g := range active {
			if w := g.step(in, i); w != 0 {
				what := "reset"
				if in.Op == orqcs.OpMeasureZ {
					what = "measurement"
				}
				return nil, nondeterministic(g, w, fmt.Sprintf("the Z %s at instruction %d", what, i))
			}
		}
		active = slices.DeleteFunc(active, func(g *laneGroup) bool { return g.live == 0 && len(g.evs) == 0 })
		if len(active) > 0 {
			rev = e.appendSlot(rev, s, i, active, lanes, obsID)
		}
	}
	for _, g := range active {
		for _, w := range g.sz {
			if w != 0 {
				return nil, nondeterministic(g, w, "the initial |0⟩ state")
			}
		}
	}
	slices.Reverse(rev)
	e.dets = slices.Clone(rev) // trimmed: the table can live as long as a cached graph
	for c := range nc {
		e.start[c+1] += e.start[c]
	}
	return e, nil
}

// step walks the group backward over instruction i, keeping live current.
// At a Z measurement or reset it returns the lanes whose parity
// anticommutes with it (a Z error on the qubit would flip them), and
// otherwise 0.
func (g *laneGroup) step(in *orqcs.Instr, i int) (random uint64) {
	q := in.Q1
	was := g.nz(q)
	switch {
	case in.Op == orqcs.OpMeasureZ:
		if w := g.sz[q]; w != 0 {
			return w
		}
		for k := len(g.evs) - 1; k >= 0 && int(g.evs[k].instr) == i; k-- {
			g.sx[q] ^= g.evs[k].word
			g.evs = g.evs[:k]
		}
	case in.Op == orqcs.OpPrepareZ:
		if w := g.sz[q]; w != 0 {
			return w
		}
		g.sx[q] = 0
	case in.Op == orqcs.OpZZ:
		was2 := g.nz(in.Q2)
		orqcs.Conjugate(in, g.sz, g.sx)
		g.live += g.nz(in.Q2) - was2
	case !orqcs.Conjugate(in, g.sz, g.sx):
		panic(fmt.Sprintf("noise: non-Clifford opcode %d in frame propagation", in.Op))
	}
	g.live += g.nz(q) - was
	return 0
}

// nz is 1 when an error on qubit q would flip some lane of the group, else 0.
func (g *laneGroup) nz(q int32) int {
	if g.sx[q]|g.sz[q] != 0 {
		return 1
	}
	return 0
}

// appendSlot writes the symptoms of slot i's fault components, read off
// the active groups' planes: each component's checks, descending, are
// appended to rev in descending component order, its length goes to
// e.start and its observable bit to e.obs. A component whose branch never
// fires (p ≤ 0) keeps an empty symptom.
func (e *Effects) appendSlot(rev []int32, s *Schedule, i int, active []*laneGroup, lanes []int32, obsID int32) []int32 {
	for k := int(s.start[i+1]) - 1; k >= int(s.start[i]); k-- {
		f := &s.faults[k]
		for j := int(kindComps[f.Kind]) - 1; j >= 0; j-- {
			b := int(compBranch[f.Kind][j])
			if p, _, _, _, _ := f.Branch(b); p <= 0 {
				continue
			}
			q, z := f.Q1, false
			switch branchPaulis[f.Kind][b] {
			case 1 << 1:
				z = true
			case 1 << 2:
				q = f.Q2
			case 1 << 3:
				q, z = f.Q2, true
			}
			c := e.comp[k] + int32(j)
			n := len(rev)
			for _, g := range active {
				w := g.sx[q]
				if z {
					w = g.sz[q]
				}
				for ; w != 0; w &= w - 1 {
					id := lanes[int(g.id)*64+bits.TrailingZeros64(w)]
					if id == obsID {
						e.obs[c>>6] |= 1 << uint(c&63)
					} else {
						rev = append(rev, id)
					}
				}
			}
			if seg := rev[n:]; len(seg) > 1 {
				slices.SortFunc(seg, func(a, b int32) int { return cmp.Compare(b, a) })
			}
			e.start[c+1] = int32(len(rev) - n)
		}
	}
	return rev
}

// CheckSchedule reports an error unless the table covers exactly s's fault
// sites with their kinds: effects compiled against another schedule would
// read the wrong faults.
func (e *Effects) CheckSchedule(s *Schedule) error {
	n := len(s.faults)
	if len(e.kind) != n {
		return fmt.Errorf("noise: effect table covers %d fault sites, the schedule %d", len(e.kind), n)
	}
	for k, kind := range e.kind {
		if f := &s.faults[k]; f.Kind != kind {
			return fmt.Errorf("noise: fault site %d is %v in the effect table, %v in the schedule", k, kind, f.Kind)
		}
	}
	return nil
}

// Fire XORs the symptom of every firing of p into p's check words and
// returns them with the word of lanes whose observable flips: a firing
// XORs in the symptom of each component of its branch. The words live in
// p.Dets, one per check; bits outside p.Lanes are unspecified. Zero
// allocations once p's words are sized.
//
//tiscc:hotpath
func (e *Effects) Fire(p *Planes) (dets []uint64, obs uint64) {
	dets = checkWords(p, e.checks)
	for _, w := range p.Fired {
		site := FiredSite(w)
		kind := e.kind[site]
		lane := uint64(1) << FiredLane(w)
		for m := branchPaulis[kind][FiredBranch(w)]; m != 0; m &= m - 1 {
			c := e.comp[site] + int32(compOf[kind][bits.TrailingZeros8(m)])
			for _, di := range e.dets[e.start[c]:e.start[c+1]] {
				dets[di] ^= lane
			}
			obs ^= (e.obs[c>>6] >> uint(c&63) & 1) * lane
		}
	}
	return dets, obs
}

// checkWords returns p's check words, sized for n checks and cleared.
//
//tiscc:allow(hotpath) allocates only on a plane's first use: the words live with the sampler's batch, and its later batches reuse them
func checkWords(p *Planes, n int) []uint64 {
	if cap(p.Dets) < n {
		p.Dets = make([]uint64, n)
	}
	p.Dets = p.Dets[:n]
	clear(p.Dets)
	return p.Dets
}

// Mechanism is the effect of one fault branch: its firing probability, the
// checks it flips (ascending) and whether it flips the observable.
type Mechanism struct {
	P    float64
	Dets []int32
	Obs  bool
}

// EachMechanism hands visit the mechanism of every fault branch of s, the
// schedule the table covers, in (site, branch) order — the order of
// Fault.Branch within a site — skipping branches with p ≤ 0 and branches
// that flip nothing. A branch's checks are the XOR of its components'.
// m.Dets is only valid during the call; a non-nil error from visit stops
// the walk and is returned.
func (e *Effects) EachMechanism(s *Schedule, visit func(m Mechanism) error) error {
	if err := e.CheckSchedule(s); err != nil {
		return err
	}
	var buf, tmp []int32
	for k := range s.faults {
		f := &s.faults[k]
		for b := range f.NumBranches() {
			p, _, _, _, _ := f.Branch(b)
			if p <= 0 {
				continue
			}
			buf = buf[:0]
			obs := false
			for m := branchPaulis[f.Kind][b]; m != 0; m &= m - 1 {
				c := e.comp[k] + int32(compOf[f.Kind][bits.TrailingZeros8(m)])
				tmp, buf = buf, xorSorted(tmp[:0], buf, e.dets[e.start[c]:e.start[c+1]])
				obs = obs != (e.obs[c>>6]>>uint(c&63)&1 == 1)
			}
			if len(buf) == 0 && !obs {
				continue
			}
			if err := visit(Mechanism{P: p, Dets: buf, Obs: obs}); err != nil {
				return err
			}
		}
	}
	return nil
}

// xorSorted appends to dst the symmetric difference of the ascending,
// duplicate-free lists a and b, ascending.
func xorSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// AppendEffects serializes e as three byte blobs, so decoding copies each
// in one move: each site's fault kind; each component's symptom length and
// observable bit h = len<<1 | obs as one byte, 0xFF standing for an
// h ≥ 0xFF that follows in an escape list of u32s; and every component's
// check ids, as u16 when the table has at most 2¹⁶ checks and as i32
// otherwise. The component numbering follows from the kinds, and the check
// count is the reader's to supply.
func AppendEffects(buf []byte, e *Effects) []byte {
	kinds := make([]byte, len(e.kind))
	for k, kind := range e.kind {
		kinds[k] = byte(kind)
	}
	buf = wire.AppendBytes(buf, kinds)
	heads := make([]byte, max(len(e.start)-1, 0))
	var esc []uint32
	for c := range int32(len(heads)) {
		h := uint32(e.start[c+1]-e.start[c])<<1 | uint32(e.obs[c>>6]>>uint(c&63)&1)
		heads[c] = uint8(min(h, 0xFF))
		if h >= 0xFF {
			esc = append(esc, h)
		}
	}
	buf = wire.AppendBytes(buf, heads)
	buf = wire.AppendU32(buf, uint32(len(esc)))
	for _, h := range esc {
		buf = wire.AppendU32(buf, h)
	}
	ids := make([]byte, 0, 4*len(e.dets))
	for _, di := range e.dets {
		if e.checks <= 1<<16 {
			ids = binary.LittleEndian.AppendUint16(ids, uint16(di))
		} else {
			ids = binary.LittleEndian.AppendUint32(ids, uint32(di))
		}
	}
	return wire.AppendBytes(buf, ids)
}

// DecodeEffects decodes a table written by AppendEffects for checks checks.
// It validates everything Fire and EachMechanism index with: known fault
// kinds, one header per component, symptom lengths that add up to the ids
// present, and check ids in [0, checks), strictly ascending within a
// component. Hostile bytes give an error, never a panic; CheckSchedule then
// binds the sites to a schedule.
func DecodeEffects(r *wire.Reader, checks int) (*Effects, error) {
	kinds := r.Bytes()
	heads := r.Bytes()
	esc := make([]uint32, r.Count(4))
	for i := range esc {
		esc[i] = r.U32()
	}
	ids := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	e := &Effects{checks: checks, kind: make([]FaultKind, len(kinds)), comp: make([]int32, len(kinds)+1)}
	for k, b := range kinds {
		if b >= NumFaultKinds {
			return nil, fmt.Errorf("noise: decode: fault site %d has unknown kind %d", k, b)
		}
		e.kind[k] = FaultKind(b)
		e.comp[k+1] = e.comp[k] + int32(kindComps[b])
	}
	nc := int(e.comp[len(kinds)])
	if len(heads) != nc {
		return nil, fmt.Errorf("noise: decode: %d component headers for %d components", len(heads), nc)
	}
	e.start = make([]int32, nc+1)
	e.obs = make([]uint64, (nc+63)/64)
	total := 0
	for c, b := range heads {
		h := uint32(b)
		if h == 0xFF {
			if len(esc) == 0 {
				return nil, fmt.Errorf("noise: decode: component %d header escapes past the escape list", c)
			}
			h, esc = esc[0], esc[1:]
		}
		total += int(h >> 1)
		if total > len(ids) {
			return nil, fmt.Errorf("noise: decode: component symptoms overrun the %d id bytes", len(ids))
		}
		e.start[c+1] = int32(total)
		e.obs[c>>6] |= uint64(h&1) << uint(c&63)
	}
	width := 2
	if checks > 1<<16 {
		width = 4
	}
	if len(esc) != 0 || total*width != len(ids) {
		return nil, fmt.Errorf("noise: decode: %d unused header escapes, %d check ids in %d bytes", len(esc), total, len(ids))
	}
	e.dets = make([]int32, total)
	for c := range nc {
		prev := int32(-1)
		for j := e.start[c]; j < e.start[c+1]; j++ {
			var di int32
			if width == 2 {
				di = int32(binary.LittleEndian.Uint16(ids[2*j:]))
			} else {
				di = int32(binary.LittleEndian.Uint32(ids[4*j:]))
			}
			if di <= prev || int(di) >= checks {
				return nil, fmt.Errorf("noise: decode: component %d symptom check %d out of order or outside [0, %d)", c, di, checks)
			}
			e.dets[j], prev = di, di
		}
	}
	return e, nil
}
