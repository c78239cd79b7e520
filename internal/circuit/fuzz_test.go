package circuit_test

import (
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/core"
	"tiscc/internal/hardware"
	"tiscc/internal/pauli"
)

// memoryText compiles a distance-3, three-round memory experiment and
// returns its textual circuit form: a realistic parser input covering
// preparation, movement, ZZ, rotations and measurement lines.
func memoryText(f *testing.F) string {
	c := core.NewCompiler(5, 6, hardware.Default())
	lq, err := c.NewLogicalQubit(3, 3, core.Cell{R: 1, C: 1})
	if err != nil {
		f.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(3); err != nil {
		f.Fatal(err)
	}
	if _, err := lq.TransversalMeasure(pauli.Z); err != nil {
		f.Fatal(err)
	}
	return c.Build().String()
}

// FuzzParseCircuit feeds arbitrary text to circuit.Parse, which must return
// an error rather than panic. Text it accepts must be a fixed point of the
// String/Parse round trip after one normalization.
func FuzzParseCircuit(f *testing.F) {
	f.Add(memoryText(f))
	for _, s := range []string{"ZZ 0.1", "Move 0.1", "Prepare_Z", "Move 0.3 1.4 t=0 d=210000 J",
		"Prepare_Z 0.2xyz t=5abc d=7zz", "Measure_Z 1.2.3 m=4q"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := circuit.Parse(text)
		if err != nil {
			return
		}
		once := c.String()
		c2, err := circuit.Parse(once)
		if err != nil {
			t.Fatalf("re-parsing serialized circuit: %v\n%s", err, once)
		}
		if twice := c2.String(); twice != once {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", once, twice)
		}
	})
}
