package noise

import (
	"testing"

	"tiscc/internal/orqcs"
	"tiscc/internal/telemetry"
)

// TestNoisyShotZeroAllocs is the allocs/shot regression guard for the noisy
// loop: after a warm-up shot has grown the engine's record table and scratch
// buffers, repeated fault-injecting shots on the bit-sliced engine (and on
// the row-major reference) must allocate nothing — the contract that keeps
// expectation-estimate throughput flat across millions of shots. Telemetry is
// enabled throughout (Set-registered shards on every engine), proving the
// instrumentation itself is allocation-free on the hot path.
func TestNoisyShotZeroAllocs(t *testing.T) {
	prog := memoryProgram(t, 3, 3)
	sched := Compile(Depolarizing(1e-3), prog)
	set := telemetry.NewSet(orqcs.SamplerSchema)
	engines := []struct {
		name string
		e    *orqcs.Engine
	}{
		{"bitsliced", orqcs.NewFromProgram(prog)},
		{"rowmajor", orqcs.NewFromProgramRowMajor(prog)},
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			eng.e.SetTelemetry(set.NewShard())
			// Warm up: first shots populate the record map and scratch.
			for i := 0; i < 3; i++ {
				sched.RunShot(eng.e, orqcs.ShotSeed(1, i))
			}
			shot := 3
			allocs := testing.AllocsPerRun(20, func() {
				sched.RunShot(eng.e, orqcs.ShotSeed(1, shot))
				shot++
			})
			if allocs != 0 {
				t.Fatalf("noisy shot loop allocates %.1f objects/shot, want 0", allocs)
			}
		})
	}
	// The shards must actually have counted while staying allocation-free:
	// a zero shots counter would mean the guard tested dead instrumentation.
	snap := set.Snapshot()
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("shots") == 0 || snap.Counter("batches") == 0 {
		t.Fatalf("telemetry counted no shots during the alloc guard: %v shots", snap.Counter("shots"))
	}
	if snap.Counter("faults_fired") == 0 {
		t.Fatal("telemetry counted no fired faults across the noisy warm-up and guard shots")
	}
}
