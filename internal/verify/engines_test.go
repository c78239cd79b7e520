package verify

import (
	"testing"

	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// TestBitSlicedEngineMatchesRowMajor is the workload-level differential
// cross-validation of the bit-sliced tableau transpose: compiled memory and
// lattice-surgery experiments run shot-for-shot on the row-major and
// bit-sliced engines, noiseless and under depolarizing fault injection, and
// every measurement record (hardware and virtual) must match bit-for-bit.
func TestBitSlicedEngineMatchesRowMajor(t *testing.T) {
	type workload struct {
		name string
		prog *orqcs.Program
	}
	var ws []workload
	mem, err := MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"memory-d3", mem.Prog})
	memX, err := MemoryExperiment(3, 2, pauli.X)
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"memoryX-d3", memX.Prog})
	s, err := SurgeryExperiment(3, 1, 2, 1, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"surgery-d3", s.Prog})

	for _, w := range ws {
		w := w
		t.Run(w.name, func(t *testing.T) {
			sched := noise.Compile(noise.Depolarizing(3e-3), w.prog)
			rm := orqcs.NewFromProgramRowMajor(w.prog)
			sl := orqcs.NewFromProgram(w.prog)
			for _, noisy := range []bool{false, true} {
				for shot := 0; shot < 25; shot++ {
					seed := orqcs.ShotSeed(11, shot)
					if noisy {
						sched.RunShot(rm, seed)
						sched.RunShot(sl, seed)
					} else {
						rm.RunShot(seed)
						sl.RunShot(seed)
					}
					ra, rb := rm.Records(), sl.Records()
					if len(ra) != len(rb) {
						t.Fatalf("noisy=%v shot %d: %d records vs %d", noisy, shot, len(ra), len(rb))
					}
					for k, v := range ra {
						if bv, ok := rb[k]; !ok || bv != v {
							t.Fatalf("noisy=%v shot %d: record %d = %v (row-major) vs %v present=%v (bit-sliced)",
								noisy, shot, k, v, bv, ok)
						}
					}
				}
			}
		})
	}
}

// TestBitSlicedEstimateBatchMatches runs the batch estimator on both engine
// constructors via the public multi-shot path and checks the bit-sliced
// default reproduces the row-major expectation stream exactly.
func TestBitSlicedEstimateBatchMatches(t *testing.T) {
	mem, err := MemoryExperiment(3, 2, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	// Row-major reference: sequential loop on the row-major engine.
	rm := orqcs.NewFromProgramRowMajor(mem.Prog)
	var ref []bool
	for shot := 0; shot < 40; shot++ {
		rm.RunShot(orqcs.ShotSeed(7, shot))
		ref = append(ref, mem.Outcome.Eval(rm.Records()))
	}
	// Bit-sliced path through the deterministic parallel worker pool.
	for _, workers := range []int{1, 4} {
		got := make([]bool, 40)
		if err := orqcs.RunShots(mem.Prog, nil, 40, 7, workers, func(shot int, e *orqcs.Engine) error {
			got[shot] = mem.Outcome.Eval(e.Records())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d shot %d: outcome %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}
