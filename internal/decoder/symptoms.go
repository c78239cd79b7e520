package decoder

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"tiscc/internal/noise"
	"tiscc/internal/wire"
)

// symptoms is a graph's retained effect table, indexed by the schedule's
// fault sites. A fault's branches are products of up to four Pauli
// components — X and Z on each operand — and the backward pass is linear,
// so a branch's symptom is the XOR of its components' symptoms: the table
// keeps one symptom per component, not per branch. Fault site k has kind
// kind[k] and owns component ids comp[k]..comp[k+1], its single-component
// branches in branch order (compOf numbers them); component c flips the
// detectors dets[start[c]:start[c+1]], ascending, and the observable when
// bit c of obs is set. A decoded batch reads it in place of records: a
// lane's detector words are the XOR of the symptoms of the components of
// the branches it fired (Stim's detector sampling, Gidney 2021).
type symptoms struct {
	kind  []noise.FaultKind
	comp  []int32
	start []int32
	dets  []int32
	obs   []uint64
}

// branchPaulis[k][b] is branch b of a kind-k fault as a component mask
// (bit 0 X on Q1, bit 1 Z on Q1, bit 2 X on Q2, bit 3 Z on Q2), compOf[k][i]
// the index among a kind-k site's components of component i (the rank of
// the branch that is component i alone among the site's single-component
// branches) and kindComps[k] their number. All three come from
// noise.Fault.Branch, the one fault-branch mapping; every component a
// branch uses is also a branch of its own.
var branchPaulis, compOf, kindComps = func() (branch [noise.NumFaultKinds][16]uint8, comp [noise.NumFaultKinds][4]uint8, n [noise.NumFaultKinds]uint8) {
	for k := range noise.FaultKind(noise.NumFaultKinds) {
		f := noise.Fault{Kind: k}
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
				n[k]++
			}
		}
	}
	return branch, comp, n
}()

// init sizes the table, empty, for the given fault sites and components;
// forEachMechanism then fills it site by site.
func (t *symptoms) init(sites, comps int) {
	*t = symptoms{
		kind:  make([]noise.FaultKind, 0, sites),
		comp:  make([]int32, 1, sites+1),
		start: make([]int32, 1, comps+1),
		obs:   make([]uint64, (comps+63)/64),
	}
}

// add appends the symptom of the current site's next component.
func (t *symptoms) add(dets []int32, obs bool) {
	if c := len(t.start) - 1; obs {
		t.obs[c>>6] |= 1 << uint(c&63)
	}
	t.dets = append(t.dets, dets...)
	t.start = append(t.start, int32(len(t.dets)))
}

// addSite closes the current site, of the given kind, after its
// components.
func (t *symptoms) addSite(kind noise.FaultKind) {
	t.kind = append(t.kind, kind)
	t.comp = append(t.comp, int32(len(t.start)-1))
}

// check reports an error unless the table covers exactly s's fault sites
// with their kinds: symptoms compiled against another schedule would
// decode the wrong faults.
func (t *symptoms) check(s *noise.Schedule) error {
	n := s.NumFaultSites()
	if len(t.kind) != n {
		return fmt.Errorf("decoder: symptom table covers %d fault sites, the schedule %d", len(t.kind), n)
	}
	for k, kind := range t.kind {
		if f := s.SiteFault(k); f.Kind != kind {
			return fmt.Errorf("decoder: fault site %d is %v in the symptom table, %v in the schedule", k, kind, f.Kind)
		}
	}
	return nil
}

// CheckSchedule reports an error unless the graph was compiled against s:
// its symptom table must cover s's fault sites with their kinds, and every
// record id its detectors and observable read must lie in s's program
// (the record-level oracles read them). It is noise.Decoder's binding
// check, which the estimator runs before sampling. Schedules are
// immutable, so the graph remembers the last one that passed and a cached
// graph checks each later request against it in O(1).
func (g *Graph) CheckSchedule(s *noise.Schedule) error {
	if g.bound.Load() == s {
		return nil
	}
	if err := g.det.CheckRecords(s.Program().NumRecords()); err != nil {
		return err
	}
	if err := g.sym.check(s); err != nil {
		return err
	}
	g.bound.Store(s)
	return nil
}

// fire XORs the symptom of every firing of p into p's detector words and
// returns them with the word of lanes whose observable flips: a firing
// XORs in the symptom of each component of its branch.
//
//tiscc:hotpath
func (g *Graph) fire(p *noise.Planes) (dets []uint64, obs uint64) {
	dets = detWords(p, len(g.det.Dets))
	t := &g.sym
	for _, w := range p.Fired {
		site := noise.FiredSite(w)
		kind := t.kind[site]
		lane := uint64(1) << noise.FiredLane(w)
		for m := branchPaulis[kind][noise.FiredBranch(w)]; m != 0; m &= m - 1 {
			c := t.comp[site] + int32(compOf[kind][bits.TrailingZeros8(m)])
			for _, di := range t.dets[t.start[c]:t.start[c+1]] {
				dets[di] ^= lane
			}
			obs ^= (t.obs[c>>6] >> uint(c&63) & 1) * lane
		}
	}
	return dets, obs
}

// detWords returns p's detector words, sized for n detectors and cleared.
//
//tiscc:allow(hotpath) allocates only on a plane's first decode: the words live with the sampler's batch, and its later batches reuse them
func detWords(p *noise.Planes, n int) []uint64 {
	if cap(p.Dets) < n {
		p.Dets = make([]uint64, n)
	}
	p.Dets = p.Dets[:n]
	clear(p.Dets)
	return p.Dets
}

// appendSymptoms serializes the table of a graph with nDets detectors as
// three byte blobs, so decoding copies each in one move: each site's fault
// kind; each component's symptom length and observable bit
// h = len<<1 | obs as one byte, 0xFF standing for an h ≥ 0xFF that follows
// in an escape list of u32s; and every component's detector ids, as u16
// when nDets ≤ 2¹⁶ and as i32 otherwise. The component numbering follows
// from the kinds.
func appendSymptoms(buf []byte, t *symptoms, nDets int) []byte {
	kinds := make([]byte, len(t.kind))
	for k, kind := range t.kind {
		kinds[k] = byte(kind)
	}
	buf = wire.AppendBytes(buf, kinds)
	heads := make([]byte, max(len(t.start)-1, 0))
	var esc []uint32
	for c := range int32(len(heads)) {
		h := uint32(t.start[c+1]-t.start[c])<<1 | uint32(t.obs[c>>6]>>uint(c&63)&1)
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
	ids := make([]byte, 0, 4*len(t.dets))
	for _, di := range t.dets {
		if nDets <= 1<<16 {
			ids = binary.LittleEndian.AppendUint16(ids, uint16(di))
		} else {
			ids = binary.LittleEndian.AppendUint32(ids, uint32(di))
		}
	}
	return wire.AppendBytes(buf, ids)
}

// readSymptoms decodes a table written by appendSymptoms for a graph of
// nDets detectors. It validates everything a decode indexes with: known
// fault kinds, one header per component, symptom lengths that add up to
// the ids present, and detector ids in [0, nDets), strictly ascending
// within a component. Hostile bytes give an error, never a panic; the
// graph's CheckSchedule then binds the sites to a schedule.
func readSymptoms(r *wire.Reader, nDets int) (*symptoms, error) {
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
	t := &symptoms{kind: make([]noise.FaultKind, len(kinds)), comp: make([]int32, len(kinds)+1)}
	for k, b := range kinds {
		if b >= noise.NumFaultKinds {
			return nil, fmt.Errorf("decoder: decode: fault site %d has unknown kind %d", k, b)
		}
		t.kind[k] = noise.FaultKind(b)
		t.comp[k+1] = t.comp[k] + int32(kindComps[b])
	}
	nc := int(t.comp[len(kinds)])
	if len(heads) != nc {
		return nil, fmt.Errorf("decoder: decode: %d component headers for %d components", len(heads), nc)
	}
	t.start = make([]int32, nc+1)
	t.obs = make([]uint64, (nc+63)/64)
	total := 0
	for c, b := range heads {
		h := uint32(b)
		if h == 0xFF {
			if len(esc) == 0 {
				return nil, fmt.Errorf("decoder: decode: component %d header escapes past the escape list", c)
			}
			h, esc = esc[0], esc[1:]
		}
		total += int(h >> 1)
		if total > len(ids) {
			return nil, fmt.Errorf("decoder: decode: component symptoms overrun the %d id bytes", len(ids))
		}
		t.start[c+1] = int32(total)
		t.obs[c>>6] |= uint64(h&1) << uint(c&63)
	}
	width := 2
	if nDets > 1<<16 {
		width = 4
	}
	if len(esc) != 0 || total*width != len(ids) {
		return nil, fmt.Errorf("decoder: decode: %d unused header escapes, %d detector ids in %d bytes", len(esc), total, len(ids))
	}
	t.dets = make([]int32, total)
	for c := range nc {
		prev := int32(-1)
		for j := t.start[c]; j < t.start[c+1]; j++ {
			var di int32
			if width == 2 {
				di = int32(binary.LittleEndian.Uint16(ids[2*j:]))
			} else {
				di = int32(binary.LittleEndian.Uint32(ids[4*j:]))
			}
			if di <= prev || int(di) >= nDets {
				return nil, fmt.Errorf("decoder: decode: component %d symptom detector %d out of order or outside [0, %d)", c, di, nDets)
			}
			t.dets[j], prev = di, di
		}
	}
	return t, nil
}
