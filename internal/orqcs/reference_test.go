package orqcs_test

import (
	"fmt"
	"slices"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/tableau"
	"tiscc/internal/verify"
)

// slicedReference is the reference pass on the forward tableau alone: every
// measurement, deterministic or not, runs through Sliced.MeasureZ, whose
// deterministic outcome is the full reconstruction. It is the oracle the
// inverse-tableau pass of orqcs.NewReference must reproduce field for field.
func slicedReference(p *orqcs.Program, seed int64) *orqcs.Reference {
	nrec := p.NumRecords()
	r := &orqcs.Reference{NumSlots: nrec, Words: make([]uint64, nrec)}
	e := orqcs.NewFromProgram(p)
	e.BeginShot(seed)
	tb := e.Tableau().(*tableau.Sliced)
	measure := func(q int, rec, slot int32, reset bool) bool {
		o := tb.MeasureZ(q, rec)
		bit := tb.Records()[rec]
		ev := orqcs.RefEvent{Rec: rec, Slot: slot, Q: int32(q), Det: o.Deterministic, Ref: bit, Reset: reset}
		if !o.Deterministic {
			ev.D0 = int32(len(r.Collapse))
			tb.LastCollapse(func(j int, x, z bool) {
				r.Collapse = append(r.Collapse, orqcs.CollapseSite{Q: int32(j), X: x, Z: z})
			})
			ev.D1 = int32(len(r.Collapse))
		}
		r.Events = append(r.Events, ev)
		if reset && bit {
			tb.X(q)
		}
		return bit
	}
	for _, in := range p.Instructions() {
		switch in.Op {
		case orqcs.OpMeasureZ:
			if measure(int(in.Q1), in.Rec, in.Rec, false) {
				r.Words[in.Rec] = ^uint64(0)
			}
		case orqcs.OpPrepareZ:
			measure(int(in.Q1), tb.VirtualID(), int32(r.NumSlots), true)
			r.NumSlots++
		default:
			e.Exec(&in)
		}
	}
	return r
}

// sameReference fails t unless got and want agree on every event (Det,
// Ref, collapse span and all), the collapse rows, the slot count and the
// record words.
func sameReference(t *testing.T, got, want *orqcs.Reference) {
	t.Helper()
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%d events, oracle %d", len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: %+v, oracle %+v", i, got.Events[i], want.Events[i])
		}
	}
	if !slices.Equal(got.Collapse, want.Collapse) {
		t.Fatalf("collapse rows differ (%d sites, oracle %d)", len(got.Collapse), len(want.Collapse))
	}
	if got.NumSlots != want.NumSlots {
		t.Fatalf("NumSlots %d, oracle %d", got.NumSlots, want.NumSlots)
	}
	if !slices.Equal(got.Words, want.Words) {
		t.Fatal("record words differ")
	}
}

// TestReferenceInverseMatchesSliced checks the inverse-tableau reference
// pass against the forward-only oracle on the memory and surgery workloads.
func TestReferenceInverseMatchesSliced(t *testing.T) {
	type build struct {
		name string
		prog func() (*orqcs.Program, error)
	}
	var cases []build
	for d := 3; d <= 13; d += 2 {
		for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
			cases = append(cases, build{fmt.Sprintf("memory/d=%d/%v", d, basis), func() (*orqcs.Program, error) {
				m, err := verify.MemoryExperiment(d, d, basis)
				if err != nil {
					return nil, err
				}
				return m.Prog, nil
			}})
		}
	}
	for _, d := range []int{3, 5} {
		cases = append(cases, build{fmt.Sprintf("surgery/d=%d", d), func() (*orqcs.Program, error) {
			s, err := verify.SurgeryExperiment(d, 1, d, 1, pauli.Z)
			if err != nil {
				return nil, err
			}
			return s.Prog, nil
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.prog()
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 0x7153CC} {
				got, err := orqcs.NewReference(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				sameReference(t, got, slicedReference(p, seed))
			}
		})
	}
}

// fuzzGates is the native single-qubit gate set a fuzzed program draws from.
var fuzzGates = []circuit.Gate{
	circuit.XPi2, circuit.XPi4, circuit.XmPi4, circuit.YPi2, circuit.YPi4,
	circuit.YmPi4, circuit.ZPi2, circuit.ZPi4, circuit.ZmPi4,
}

// FuzzReferenceInverse compiles a random native-gate circuit on up to 130
// ions, so tableau rows span more than one word, with Measure_Z and
// Prepare_Z interleaved among the gates, and checks the reference pass
// against the forward-only oracle. The first byte picks the ion count and
// every following pair of bytes is one event: an opcode and an operand.
func FuzzReferenceInverse(f *testing.F) {
	f.Add([]byte{3, 4, 0, 20, 1, 9, 0, 10, 1, 11, 0, 12, 2})
	f.Add([]byte{1, 7, 0, 1, 0, 19, 0})
	f.Add([]byte{70, 4, 65, 20, 3, 9, 65, 21, 66, 10, 65, 11, 3, 10, 66, 12, 0})
	f.Add([]byte{129, 4, 0, 4, 64, 4, 128, 9, 0, 9, 64, 9, 128, 20, 1, 10, 0, 11, 64, 10, 128, 12, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 2001 {
			return
		}
		n := int(data[0])%130 + 1
		site := func(b byte) grid.Site { return grid.Site{R: 0, C: int(b) % n} }
		var c circuit.Circuit
		var rec int32
		emit := func(e circuit.Event) {
			e.Start, e.Dur = int64(len(c.Events)), 1
			c.Events = append(c.Events, e)
		}
		// Touch every ion first so the tableau has all n qubits.
		for q := 0; q < n; q++ {
			emit(circuit.Event{Gate: circuit.PrepareZ, S1: grid.Site{R: 0, C: q}, Record: -1})
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, s := data[i], site(data[i+1])
			switch g := int(op) % 24; {
			case g < len(fuzzGates):
				emit(circuit.Event{Gate: fuzzGates[g], S1: s, Record: -1})
			case g < 10+len(fuzzGates):
				// Partner: the next ion over, so ZZs chain across words.
				s2 := site(data[i+1] + 1 + byte(g-len(fuzzGates)))
				if s2 == s {
					continue
				}
				emit(circuit.Event{Gate: circuit.ZZ, S1: s, S2: s2, Record: -1})
			case g < 22:
				emit(circuit.Event{Gate: circuit.MeasureZ, S1: s, Record: rec})
				rec++
			default:
				emit(circuit.Event{Gate: circuit.PrepareZ, S1: s, Record: -1})
			}
		}
		p, err := orqcs.Compile(&c)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			got, err := orqcs.NewReference(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			sameReference(t, got, slicedReference(p, seed))
		}
	})
}
