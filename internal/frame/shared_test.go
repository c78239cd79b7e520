package frame_test

import (
	"testing"

	"tiscc/internal/decoder"
	"tiscc/internal/frame"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// TestReferenceSharedAcrossSetup pins the one-pass set-up: the experiment's
// noiseless value, detector extraction and every frame sampler of a program
// read the one memoized reference trace instead of running their own.
func TestReferenceSharedAcrossSetup(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Prog.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Outcome.EvalWords(want.Words) != 0; got != mem.Reference {
		t.Fatalf("trace reads outcome %v, experiment reference %v", got, mem.Reference)
	}
	if _, err := decoder.Extract(mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sim, err := frame.New(mem.Prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Trace() != want {
			t.Fatalf("sampler %d runs its own reference trace", i)
		}
	}
	if again, _ := mem.Prog.Reference(); again != want {
		t.Fatal("Program.Reference recomputed the trace")
	}
}
