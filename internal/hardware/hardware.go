// Package hardware implements the HardwareModel of TISCC Sec 3.2: the native
// trapped-ion gate set with literature-derived durations (paper Table 5),
// and a time-resolved circuit builder that tracks ion positions, enforces
// movement validity (no co-located ions, no resting at junctions) and
// resolves junction conflicts by serializing traversals.
package hardware

import (
	"fmt"
	"slices"
	"sort"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
)

// Params holds the hardware timing model. Durations are in nanoseconds.
type Params struct {
	PrepareZ int64 // qubit (re)initialisation
	MeasureZ int64 // state readout
	OneQPiX  int64 // X_{π/2}, X_{±π/4} (same bus; paper lists 10 µs)
	OneQPiY  int64 // Y_{π/2}, Y_{±π/4}
	OneQPiZ  int64 // Z rotations (virtual/fast; paper lists 3 µs)
	ZZ       int64 // two-qubit gate incl. implicit split/merge/cool
	Move     int64 // one inter-zone transport step
	Junction int64 // one junction move (two per traversal)

	// Explicit well-operation mode (paper future work (i)(a)): when
	// ExplicitWellOps is set, two-qubit interactions are compiled as
	// Merge_Wells + bare ZZ + Split_Wells + Cool with the durations below
	// instead of the single aggregate ZZ time above.
	ExplicitWellOps bool
	MergeWells      int64 // combine two adjacent wells into one
	SplitWells      int64 // separate the combined well
	Cool            int64 // sympathetic re-cooling after transport/merge
	BareZZ          int64 // the two-qubit gate itself (≈ 25 µs, Sec 3.2)

	ZoneWidthM   float64 // trapping-zone width in meters
	TransportMPS float64 // straight transport velocity (m/s)
	JunctionMPS  float64 // junction traversal velocity (m/s)

	// T2 is the idle dephasing time of a resting ion in nanoseconds. It is
	// not part of the paper's Table 5 timing model, but the noise subsystem
	// pairs it with the per-instruction idle windows computed at lowering
	// time to turn this timing model into idle-dephasing probabilities
	// (p_Z = (1 − exp(−t_idle/T2))/2). Zero disables idle dephasing.
	T2 int64
}

// Default returns the paper's Table 5 parameters: 420 µm zones, 80 m/s
// straight transport (⇒ 5.25 µs Move), 4 m/s junction speed (⇒ 105 µs per
// junction operation), 2 ms ZZ dominated by split/merge/cool.
func Default() Params {
	return Params{
		PrepareZ: 10_000,
		MeasureZ: 120_000,
		OneQPiX:  10_000,
		OneQPiY:  10_000,
		OneQPiZ:  3_000,
		ZZ:       2_000_000,
		Move:     5_250,
		Junction: 105_000,
		// Explicit well-operation timings generalized from Pino et al.
		// (2021): split/merge/cool ≈ 2 ms total dominating the ≈ 25 µs gate.
		MergeWells:   650_000,
		SplitWells:   650_000,
		Cool:         675_000,
		BareZZ:       25_000,
		ZoneWidthM:   420e-6,
		TransportMPS: 80,
		JunctionMPS:  4,
		// Hyperfine-qubit memory coherence of ~1 s, conservative against the
		// multi-second T2 reported for ¹⁷¹Yb⁺ clock-state qubits.
		T2: 1_000_000_000,
	}
}

// Duration returns the duration of a gate. Move durations depend on whether
// a junction is traversed and are handled by the builder.
func (p Params) Duration(g circuit.Gate) int64 {
	switch g {
	case circuit.PrepareZ:
		return p.PrepareZ
	case circuit.MeasureZ:
		return p.MeasureZ
	case circuit.XPi2, circuit.XPi4, circuit.XmPi4:
		return p.OneQPiX
	case circuit.YPi2, circuit.YPi4, circuit.YmPi4:
		return p.OneQPiY
	case circuit.ZPi2, circuit.ZPi4, circuit.ZmPi4, circuit.ZPi8, circuit.ZmPi8:
		return p.OneQPiZ
	case circuit.ZZ:
		if p.ExplicitWellOps {
			return p.BareZZ
		}
		return p.ZZ
	case circuit.Move:
		return p.Move
	case circuit.MergeWells:
		return p.MergeWells
	case circuit.SplitWells:
		return p.SplitWells
	case circuit.Cool:
		return p.Cool
	}
	panic("hardware: unknown gate " + g.String())
}

// Ion identifies a trapped ion managed by a Builder.
type Ion int

type siteState struct {
	occupant Ion   // -1 when empty
	freeFrom int64 // time the site was last vacated
}

type window struct{ start, end int64 }

// Builder constructs a valid, time-resolved hardware circuit. All emission
// methods schedule as-soon-as-possible subject to per-ion program order,
// site occupancy and junction availability.
type Builder struct {
	G *grid.Grid
	P Params

	pos   []grid.Site // ion-indexed: current site
	avail []int64     // ion-indexed: time the ion becomes free
	// sites and jwin are indexed by G.Index: per-site occupancy and the
	// reservation windows of each junction.
	sites []siteState
	jwin  [][]window
	// events holds the emitted events in blocks (see emit), in emission
	// order.
	events [][]circuit.Event

	nextRecord int32
}

// NewBuilder returns an empty builder over the given grid and parameters.
func NewBuilder(g *grid.Grid, p Params) *Builder {
	sites := make([]siteState, g.NumSites())
	for i := range sites {
		sites[i].occupant = -1
	}
	return &Builder{G: g, P: p, sites: sites, jwin: make([][]window, g.NumSites())}
}

// site returns the state of the in-bounds site s.
func (b *Builder) site(s grid.Site) *siteState { return &b.sites[b.G.Index(s)] }

// AddIon registers an ion resting at site s. Ions added before any event is
// emitted rest there from time 0; ions added mid-compilation (merge seams,
// relocated boundary measure qubits) are loaded at the current makespan, so
// their events can never be scheduled before earlier traffic through the
// site. Registering two ions on one site is an error.
func (b *Builder) AddIon(s grid.Site) (Ion, error) {
	if !b.G.Valid(s) {
		return -1, fmt.Errorf("hardware: invalid site %v", s)
	}
	if grid.TypeOf(s) == grid.Junction {
		return -1, fmt.Errorf("hardware: ions cannot rest at junction %v", s)
	}
	st := b.site(s)
	if st.occupant != -1 {
		return -1, fmt.Errorf("hardware: site %v already occupied", s)
	}
	id := Ion(len(b.pos))
	st.occupant = id
	b.avail = append(b.avail, max64(b.Now(), st.freeFrom))
	b.pos = append(b.pos, s)
	return id, nil
}

// MustAddIon is AddIon panicking on error (for compiler-internal layouts).
func (b *Builder) MustAddIon(s grid.Site) Ion {
	id, err := b.AddIon(s)
	if err != nil {
		panic(err)
	}
	return id
}

// Pos returns the current site of an ion.
func (b *Builder) Pos(i Ion) grid.Site { return b.pos[i] }

// Occupied reports whether a site currently hosts a resting ion.
func (b *Builder) Occupied(s grid.Site) bool {
	return b.G.InBounds(s) && b.site(s).occupant != -1
}

// IonAt returns the ion currently resting at s, if any.
func (b *Builder) IonAt(s grid.Site) (Ion, bool) {
	if !b.G.InBounds(s) || b.site(s).occupant == -1 {
		return -1, false
	}
	return b.site(s).occupant, true
}

// Avail returns the time at which the ion becomes free.
func (b *Builder) Avail(i Ion) int64 { return b.avail[i] }

// Now returns the completion time of everything emitted so far.
func (b *Builder) Now() int64 {
	var t int64
	for _, a := range b.avail {
		if a > t {
			t = a
		}
	}
	return t
}

// Gate1 emits a single-qubit gate on the ion at its current site.
func (b *Builder) Gate1(g circuit.Gate, i Ion) {
	if g.TwoQubit() || g == circuit.MeasureZ || g == circuit.PrepareZ {
		panic("hardware: Gate1 with non-1q gate " + g.String())
	}
	d := b.P.Duration(g)
	t := b.avail[i]
	b.emit(circuit.Event{Gate: g, S1: b.pos[i], Start: t, Dur: d, Record: -1})
	b.avail[i] = t + d
}

// Prepare emits a Prepare_Z (reset to |0⟩) on the ion.
func (b *Builder) Prepare(i Ion) {
	d := b.P.PrepareZ
	t := b.avail[i]
	b.emit(circuit.Event{Gate: circuit.PrepareZ, S1: b.pos[i], Start: t, Dur: d, Record: -1})
	b.avail[i] = t + d
}

// Measure emits a Measure_Z on the ion and returns the record index.
func (b *Builder) Measure(i Ion) int32 {
	d := b.P.MeasureZ
	t := b.avail[i]
	rec := b.nextRecord
	b.nextRecord++
	b.emit(circuit.Event{Gate: circuit.MeasureZ, S1: b.pos[i], Start: t, Dur: d, Record: rec})
	b.avail[i] = t + d
	return rec
}

// ZZGate emits the native two-qubit gate between two ions, which must rest
// at rail-adjacent sites. In the default model the 2 ms ZZ time subsumes
// the well split/merge/cool (paper Sec 3.2); with Params.ExplicitWellOps
// these are emitted as separate Merge_Wells / ZZ / Split_Wells / Cool
// events (the paper's future work (i)(a)).
func (b *Builder) ZZGate(a, c Ion) error {
	sa, sc := b.pos[a], b.pos[c]
	if !grid.Adjacent(sa, sc) {
		return fmt.Errorf("hardware: ZZ between non-adjacent sites %v and %v", sa, sc)
	}
	emit := func(g circuit.Gate) {
		d := b.P.Duration(g)
		t := max64(b.avail[a], b.avail[c])
		b.emit(circuit.Event{Gate: g, S1: sa, S2: sc, Start: t, Dur: d, Record: -1})
		b.avail[a] = t + d
		b.avail[c] = t + d
	}
	if b.P.ExplicitWellOps {
		emit(circuit.MergeWells)
		emit(circuit.ZZ)
		emit(circuit.SplitWells)
		emit(circuit.Cool)
		return nil
	}
	emit(circuit.ZZ)
	return nil
}

// Hadamard emits the native decomposition of a Hadamard (Z_{π/2} then
// Y_{π/4}, per the H1 data-sheet construction referenced in Sec 3.2).
func (b *Builder) Hadamard(i Ion) {
	b.Gate1(circuit.ZPi2, i)
	b.Gate1(circuit.YPi4, i)
}

// CZ emits a controlled-Z from natives: Z_{-π/4} ⊗ Z_{-π/4} · (ZZ)_{π/4}.
func (b *Builder) CZ(a, c Ion) error {
	b.Gate1(circuit.ZmPi4, a)
	b.Gate1(circuit.ZmPi4, c)
	return b.ZZGate(a, c)
}

// CNOT emits a CNOT (control ctl, target tgt) from natives.
func (b *Builder) CNOT(ctl, tgt Ion) error {
	b.Hadamard(tgt)
	if err := b.CZ(ctl, tgt); err != nil {
		return err
	}
	b.Hadamard(tgt)
	return nil
}

// MoveAlong walks an ion along a rail path (as produced by grid.Path; the
// first element must be the ion's current site). Junction points in the
// path are converted to flank-to-flank Move events taking two Junction
// times; the junction is reserved for the traversal window, and overlapping
// requests from other ions are serialized (paper Sec 3.3: "it resolves it by
// inserting appropriate time to perform the conflicting junction moves
// sequentially").
func (b *Builder) MoveAlong(i Ion, path []grid.Site) error {
	if len(path) == 0 || path[0] != b.pos[i] {
		return fmt.Errorf("hardware: path must start at ion position %v", b.pos[i])
	}
	k := 1
	for k < len(path) {
		cur := b.pos[i]
		next := path[k]
		if !b.G.Valid(next) {
			return fmt.Errorf("hardware: path leaves the grid at %v", next)
		}
		if grid.TypeOf(next) == grid.Junction {
			if k+1 >= len(path) {
				return fmt.Errorf("hardware: path ends at junction %v", next)
			}
			land := path[k+1]
			if !b.G.Valid(land) {
				return fmt.Errorf("hardware: path leaves the grid at %v", land)
			}
			if !grid.Adjacent(next, land) || !grid.Adjacent(cur, next) {
				return fmt.Errorf("hardware: junction hop %v->%v->%v not adjacent", cur, next, land)
			}
			if err := b.hop(i, cur, land, next); err != nil {
				return err
			}
			k += 2
			continue
		}
		if !grid.Adjacent(cur, next) {
			return fmt.Errorf("hardware: move %v->%v not adjacent", cur, next)
		}
		if err := b.step(i, cur, next); err != nil {
			return err
		}
		k++
	}
	return nil
}

// step performs a single inter-zone move.
func (b *Builder) step(i Ion, from, to grid.Site) error {
	st := b.site(to)
	if st.occupant != -1 {
		return fmt.Errorf("hardware: site %v occupied by ion %d (move of ion %d blocked)", to, st.occupant, i)
	}
	t := max64(b.avail[i], st.freeFrom)
	d := b.P.Move
	b.emit(circuit.Event{Gate: circuit.Move, S1: from, S2: to, Start: t, Dur: d, Record: -1})
	b.vacate(from, t)
	st.occupant = i
	b.pos[i] = to
	b.avail[i] = t + d
	return nil
}

// hop performs a junction traversal from -> (j) -> to, reserving j.
func (b *Builder) hop(i Ion, from, to, j grid.Site) error {
	st := b.site(to)
	if st.occupant != -1 {
		return fmt.Errorf("hardware: site %v occupied by ion %d (junction hop of ion %d blocked)", to, st.occupant, i)
	}
	d := 2 * b.P.Junction
	t := max64(b.avail[i], st.freeFrom)
	t = b.reserveJunction(j, t, d)
	b.emit(circuit.Event{Gate: circuit.Move, S1: from, S2: to, Start: t, Dur: d, Record: -1, ViaJunction: true})
	b.vacate(from, t)
	st.occupant = i
	b.pos[i] = to
	b.avail[i] = t + d
	return nil
}

func (b *Builder) vacate(s grid.Site, t int64) {
	st := b.site(s)
	st.occupant = -1
	if t > st.freeFrom {
		st.freeFrom = t
	}
}

// reserveJunction finds the earliest start ≥ t such that [start, start+d)
// does not overlap an existing reservation, inserts it, and returns it. A
// junction's windows never overlap and stay sorted by start, hence by end:
// the walk starts at the first window ending after t and stops at the
// first gap wide enough.
func (b *Builder) reserveJunction(j grid.Site, t, d int64) int64 {
	k := b.G.Index(j)
	wins := b.jwin[k]
	i := sort.Search(len(wins), func(i int) bool { return wins[i].end > t })
	start := t
	for ; i < len(wins) && wins[i].start < start+d; i++ {
		start = max(start, wins[i].end)
	}
	b.jwin[k] = slices.Insert(wins, i, window{start, start + d})
	return start
}

// WaitUntil advances an ion's availability (used to align phase boundaries).
func (b *Builder) WaitUntil(i Ion, t int64) {
	if t > b.avail[i] {
		b.avail[i] = t
	}
}

// maxEventBlock caps the capacity of a Builder's event blocks.
const maxEventBlock = 1 << 12

// emit appends e to the event stream. Events are stored in blocks whose
// capacity doubles from 64 up to maxEventBlock, so emission never copies the
// events already written; TimeOrdered reads them in time order in place,
// and Build gathers them into one time-ordered copy.
func (b *Builder) emit(e circuit.Event) {
	n := len(b.events)
	if n == 0 || len(b.events[n-1]) == cap(b.events[n-1]) {
		size := maxEventBlock
		if n < 6 {
			size = 64 << n
		}
		b.events = append(b.events, make([]circuit.Event, 0, size))
		n++
	}
	b.events[n-1] = append(b.events[n-1], e)
}

// Build returns the accumulated circuit, sorted by start time.
func (b *Builder) Build() *circuit.Circuit {
	return &circuit.Circuit{Events: circuit.SortedByTime(b.events...)}
}

// TimeOrdered returns the time-ordered view of the events emitted so far:
// the order of Build's circuit, without its copy. The view reads the
// builder's blocks, so it is valid until the next emission.
func (b *Builder) TimeOrdered() circuit.View { return circuit.TimeOrder(b.events...) }

// Validate re-checks a finished circuit against the hardware rules: gates
// only on existing non-junction sites, moves between adjacent sites or
// across a shared junction, ZZ on adjacent pairs, no two ions on one site,
// and no overlapping traversals of one junction. It re-simulates ion
// movement from the event stream in time order (the paper's "hardware
// validity checker", Sec 3.3), so externally produced or hand-edited
// circuits can be checked too. Per-site state is indexed by g.Index, read
// only once a site is known to be valid.
func Validate(g *grid.Grid, c *circuit.Circuit) error {
	events := c.TimeOrdered()

	occupied := make([]bool, g.NumSites())
	touched := make([]bool, g.NumSites()) // sites that ever hosted an ion
	jwins := make([][]window, g.NumSites())

	ensureIon := func(s grid.Site) error {
		i := g.Index(s)
		if occupied[i] {
			return nil
		}
		if touched[i] {
			// Site was vacated earlier; an ion cannot reappear without a Move.
			return fmt.Errorf("hardware: gate on vacated site %v", s)
		}
		occupied[i], touched[i] = true, true
		return nil
	}
	checkSite := func(s grid.Site) error {
		if !g.Valid(s) {
			return fmt.Errorf("hardware: event on invalid site %v", s)
		}
		if grid.TypeOf(s) == grid.Junction {
			return fmt.Errorf("hardware: gate addressed to junction %v", s)
		}
		return nil
	}

	for k := range events.Len() {
		e, _ := events.At(k)
		if err := checkSite(e.S1); err != nil {
			return err
		}
		if e.Gate.TwoQubit() {
			if err := checkSite(e.S2); err != nil {
				return err
			}
		}
		switch e.Gate {
		case circuit.Move:
			if err := ensureIon(e.S1); err != nil {
				return err
			}
			to := g.Index(e.S2)
			if occupied[to] {
				return fmt.Errorf("hardware: move into occupied site %v at t=%d", e.S2, e.Start)
			}
			if e.ViaJunction {
				j, ok := grid.CommonJunction(e.S1, e.S2)
				if !ok || !g.Valid(j) {
					return fmt.Errorf("hardware: junction move %v->%v without common junction", e.S1, e.S2)
				}
				w := window{e.Start, e.End()}
				ji := g.Index(j)
				for _, o := range jwins[ji] {
					if w.start < o.end && o.start < w.end {
						return fmt.Errorf("hardware: junction %v conflict: [%d,%d) vs [%d,%d)", j, w.start, w.end, o.start, o.end)
					}
				}
				jwins[ji] = append(jwins[ji], w)
			} else if !grid.Adjacent(e.S1, e.S2) {
				return fmt.Errorf("hardware: move %v->%v not adjacent", e.S1, e.S2)
			}
			occupied[g.Index(e.S1)] = false
			occupied[to], touched[to] = true, true
		case circuit.ZZ, circuit.MergeWells, circuit.SplitWells, circuit.Cool:
			if !grid.Adjacent(e.S1, e.S2) {
				return fmt.Errorf("hardware: %s %v-%v not adjacent", e.Gate, e.S1, e.S2)
			}
			if err := ensureIon(e.S1); err != nil {
				return err
			}
			if err := ensureIon(e.S2); err != nil {
				return err
			}
		default:
			if err := ensureIon(e.S1); err != nil {
				return err
			}
		}
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
