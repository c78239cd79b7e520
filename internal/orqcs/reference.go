package orqcs

import (
	"fmt"
	"math/rand"
	"sync"

	"tiscc/internal/pauli"
	"tiscc/internal/tableau"
)

// refSeed seeds the reference shot. Any value works: the frame sampler's
// collapse masks absorb every difference between the reference coins and a
// lane's coins, so records never depend on this choice (a property test
// pins that too).
const refSeed int64 = 0x7153CC

// RefEvent is one measurement the program performs — an explicit Measure_Z
// or the implicit Z measurement inside a Prepare_Z reset — as observed on
// the reference shot.
type RefEvent struct {
	Rec    int32 // record id (virtual ids for resets)
	Slot   int32 // outcome-word index: Rec for explicit records, after them for resets
	Q      int32 // measured qubit
	Det    bool  // outcome forced by the state (shot-invariant property)
	Ref    bool  // reference outcome; for random events the reference coin
	Reset  bool  // part of a Prepare_Z: a conditional X follows
	D0, D1 int32 // random events: collapse-row support is Collapse[D0:D1]
}

// CollapseSite is one qubit of a collapse row's support with its X/Z bits.
type CollapseSite struct {
	Q    int32
	X, Z bool
}

// Reference is the noiseless reference trace of a Clifford program: one
// shot on the inverse tableau, recording everything shot-invariant — each
// measurement's deterministic/random character, its reference outcome and
// a stabilizer that anticommutes with a random measurement (its collapse
// row) — plus the final state.
// The Pauli-frame sampler replays it per lane; experiment set-up reads the
// noiseless outcome and detector values from Words and walks no frames
// (the backward effect pass, noise.CompileEffects, proves those values
// deterministic). A Reference is immutable and safe for concurrent use.
type Reference struct {
	Events   []RefEvent     // every measurement, in instruction order
	Collapse []CollapseSite // concatenated collapse-row supports
	// NumSlots counts outcome words: the NumRecords explicit record slots,
	// then one per reset.
	NumSlots int
	// Words is the reference shot's record plane, one word per record id
	// (NumRecords long): Words[id] is all ones when record id read 1 and
	// zero otherwise, so an Expr.EvalWords over it is the formula's
	// noiseless value on every lane.
	Words []uint64

	mu sync.Mutex       // guards tb: expectations write its scratch row
	tb *tableau.Inverse // the state after the last instruction
}

// Reference returns the program's noiseless reference trace, computing it
// on first use; every caller shares the one trace. It fails for programs
// with T gates, whose shots have no single noiseless reference.
func (p *Program) Reference() (*Reference, error) {
	p.refOnce.Do(func() { p.ref, p.refErr = NewReference(p, refSeed) })
	return p.ref, p.refErr
}

// NewReference runs the reference shot of a Clifford program with the given
// seed, unmemoized. Program.Reference is the shared trace; the seed only
// picks the coins of random measurements, which the frame sampler absorbs.
//
// One inverse tableau runs the shot exactly as an Engine shot with this
// seed would (same coins, same virtual ids). Before each random
// measurement collapses, the trace reads its collapse row off the same
// tableau (Inverse.CollapseRow).
func NewReference(p *Program, seed int64) (*Reference, error) {
	if !p.Clifford() {
		return nil, fmt.Errorf("orqcs: program has %d T gates; a noiseless reference trace needs a Clifford program", p.numT)
	}
	nrec, nev := p.NumRecords(), 0
	for i := range p.instrs {
		if op := p.instrs[i].Op; op == OpMeasureZ || op == OpPrepareZ {
			nev++
		}
	}
	r := &Reference{Events: make([]RefEvent, 0, nev), NumSlots: nrec, Words: make([]uint64, nrec)}
	// The engine's shot source, seeded as BeginShot seeds it, so the coins
	// are the ones an Engine shot with this seed would draw.
	src := &shotSource{}
	src.Seed(seed)
	tb := tableau.NewInverse(p.n, rand.New(src))
	for i := range p.instrs {
		in := &p.instrs[i]
		q := int(in.Q1)
		switch in.Op {
		case OpMeasureZ:
			if in.Rec < 0 || int(in.Rec) >= nrec {
				return nil, fmt.Errorf("orqcs: record id %d outside [0, %d)", in.Rec, nrec)
			}
			if r.measure(tb, q, in.Rec, in.Rec, false) {
				r.Words[in.Rec] = ^uint64(0)
			}
		case OpPrepareZ:
			// Replicate tableau Reset step by step so the event is observable:
			// virtual-id allocation, Z measurement, conditional X.
			r.measure(tb, q, tb.VirtualID(), int32(r.NumSlots), true)
			r.NumSlots++
		default:
			applyGate(tb, in)
		}
	}
	r.tb = tb
	return r, nil
}

// measure performs one reference measurement, records its event and
// returns its outcome. A random one also records its collapse row, read
// before the measurement collapses the state.
func (r *Reference) measure(tb *tableau.Inverse, q int, rec, slot int32, reset bool) bool {
	ev := RefEvent{Rec: rec, Slot: slot, Q: int32(q), Reset: reset}
	ev.Det, ev.Ref = tb.DeterministicZ(q)
	if !ev.Det {
		ev.D0 = int32(len(r.Collapse))
		tb.CollapseRow(q, func(j int, x, z bool) {
			r.Collapse = append(r.Collapse, CollapseSite{Q: int32(j), X: x, Z: z})
		})
		ev.D1 = int32(len(r.Collapse))
		tb.MeasureZ(q, rec)
		ev.Ref = tb.Records()[rec]
	}
	r.Events = append(r.Events, ev)
	if reset && ev.Ref {
		tb.X(q)
	}
	return ev.Ref
}

// ExpectationValue returns the expectation of ps on the reference shot's
// final state: +1, −1 or 0.
func (r *Reference) ExpectationValue(ps *pauli.String) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tb.ExpectationValue(ps)
}
