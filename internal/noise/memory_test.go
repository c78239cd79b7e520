package noise

import (
	"testing"

	"tiscc/internal/core"
	"tiscc/internal/hardware"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// memoryProgram compiles the program of verify.MemoryExperiment(d, rounds,
// pauli.Z) straight from the compiler: verify imports this package through
// the frame sampler, so the in-package tests cannot import verify.
func memoryProgram(t testing.TB, d, rounds int) *orqcs.Program {
	t.Helper()
	c := core.NewCompiler(d+2, d+3, hardware.Default())
	lq, err := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(rounds); err != nil {
		t.Fatal(err)
	}
	if _, err := lq.TransversalMeasure(pauli.Z); err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c.Build())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
