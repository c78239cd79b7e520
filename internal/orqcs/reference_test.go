package orqcs_test

import (
	"fmt"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/tableau"
	"tiscc/internal/verify"
)

// checkReference runs p's reference pass and, with the same seed, a shot of
// the row-major T engine stepped instruction by instruction, its oracle. It
// fails t unless every event matches the T shot's (record, slot, qubit,
// determinism, outcome, reset), every collapse row is a stabilizer of the
// T state just before its measurement (expectation ±1) that anticommutes
// with the measured Z, and the slot count and record words agree. Collapse
// rows are not compared to T's: any such stabilizer converts between the
// two outcomes, and the two tableaus pick different ones.
func checkReference(t *testing.T, p *orqcs.Program, seed int64) {
	t.Helper()
	ref, err := orqcs.NewReference(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := orqcs.NewFromProgramRowMajor(p)
	e.BeginShot(seed)
	tb := e.Tableau().(*tableau.T)
	n, nev := p.NumQubits(), 0
	measure := func(q int, rec, slot int32, reset bool) {
		if nev == len(ref.Events) {
			t.Fatalf("reference has %d events, oracle more", nev)
		}
		got := ref.Events[nev]
		if !got.Det {
			d := pauli.NewString(n)
			for _, c := range ref.Collapse[got.D0:got.D1] {
				d.XBits.Set(int(c.Q), c.X)
				d.ZBits.Set(int(c.Q), c.Z)
				if c.X && c.Z {
					d.Phase = (d.Phase + 1) % 4 // Y = i·X·Z
				}
			}
			if !d.XBits.Get(q) {
				t.Fatalf("event %d: collapse row %s commutes with Z%d", nev, d, q)
			}
			if tb.ExpectationValue(d) == 0 {
				t.Fatalf("event %d: collapse row %s is not a stabilizer", nev, d)
			}
		}
		o := tb.MeasureZ(q, rec)
		bit := tb.Records()[rec]
		want := orqcs.RefEvent{Rec: rec, Slot: slot, Q: int32(q), Det: o.Deterministic, Ref: bit, Reset: reset}
		got.D0, got.D1 = 0, 0
		if got != want {
			t.Fatalf("event %d: %+v, oracle %+v", nev, got, want)
		}
		nev++
		if reset && bit {
			tb.X(q)
		}
	}
	slot := int32(p.NumRecords())
	for _, in := range p.Instructions() {
		switch in.Op {
		case orqcs.OpMeasureZ:
			measure(int(in.Q1), in.Rec, in.Rec, false)
		case orqcs.OpPrepareZ:
			measure(int(in.Q1), tb.VirtualID(), slot, true)
			slot++
		default:
			e.Exec(&in)
		}
	}
	if nev != len(ref.Events) {
		t.Fatalf("%d events, oracle %d", len(ref.Events), nev)
	}
	if ref.NumSlots != int(slot) {
		t.Fatalf("NumSlots %d, oracle %d", ref.NumSlots, slot)
	}
	for id, w := range ref.Words {
		if (w != 0) != tb.Records()[int32(id)] {
			t.Fatalf("record word %d = %#x, oracle reads %v", id, w, tb.Records()[int32(id)])
		}
	}
}

// TestReferenceInverseMatchesSliced checks the reference pass against the
// row-major T oracle on the memory and surgery workloads. (The name is the
// test's id from before the inverse tableau replaced the bit-sliced one.)
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
				checkReference(t, p, seed)
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
// against the row-major T oracle. The first byte picks the ion count and
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
			checkReference(t, p, seed)
		}
	})
}
