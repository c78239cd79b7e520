package frame

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// tableauRecords collects per-shot record tables from one of the tableau
// reference engines, constructed directly and run shot by shot.
func tableauRecords(t testing.TB, prog *orqcs.Program, sched *noise.Schedule, rowMajor bool, shots int, seed int64) []map[int32]bool {
	t.Helper()
	e := orqcs.NewFromProgram(prog)
	if rowMajor {
		e = orqcs.NewFromProgramRowMajor(prog)
	}
	out := make([]map[int32]bool, shots)
	for i := range out {
		if sched != nil {
			sched.RunShot(e, orqcs.ShotSeed(seed, i))
		} else {
			e.RunShot(orqcs.ShotSeed(seed, i))
		}
		m := make(map[int32]bool, len(e.Records()))
		for k, v := range e.Records() {
			m[k] = v
		}
		out[i] = m
	}
	return out
}

// frameRecords collects per-shot record tables from the frame sampler,
// batches spread over a worker pool as SamplePlanes spreads them.
func frameRecords(t testing.TB, sim *Sim, shots int, seed int64, workers int) []map[int32]bool {
	t.Helper()
	out := make([]map[int32]bool, shots)
	err := orqcs.RunPool(batches(shots), workers, sim.NewBatch, func(b *Batch, bi int) error {
		b.runBatch(bi, shots, seed)
		for lane := 0; lane < b.p.N; lane++ {
			out[b.p.First+lane] = maps.Clone(b.Records(lane))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("frame run: %v", err)
	}
	return out
}

func diffRecords(t *testing.T, label string, shot int, want, got map[int32]bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s shot %d: record count %d, want %d", label, shot, len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s shot %d: record %d missing", label, shot, k)
		}
		if g != v {
			t.Fatalf("%s shot %d: record %d = %v, want %v", label, shot, k, g, v)
		}
	}
}

// workload is one (program, optional schedule) differential fixture.
type workload struct {
	name  string
	prog  *orqcs.Program
	sched *noise.Schedule // nil for noiseless
}

func testWorkloads(t testing.TB) []workload {
	t.Helper()
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatalf("memory: %v", err)
	}
	memX, err := verify.MemoryExperiment(3, 2, pauli.X)
	if err != nil {
		t.Fatalf("memoryX: %v", err)
	}
	surg, err := verify.SurgeryExperiment(3, 1, 2, 1, pauli.Z)
	if err != nil {
		t.Fatalf("surgery: %v", err)
	}
	var out []workload
	for _, w := range []workload{
		{name: "memory-d3", prog: mem.Prog},
		{name: "memoryX-d3", prog: memX.Prog},
		{name: "surgery-d3", prog: surg.Prog},
	} {
		out = append(out,
			workload{name: w.name + "/noiseless", prog: w.prog},
			workload{name: w.name + "/noisy", prog: w.prog,
				sched: noise.Compile(noise.Depolarizing(3e-3), w.prog)})
	}
	return out
}

// TestFrameMatchesTableaus is the workload-level cross-validation matrix:
// memory and surgery programs, noisy and noiseless, frame records
// bit-identical to both tableau engines at every worker count.
func TestFrameMatchesTableaus(t *testing.T) {
	const shots, seed = 40, 11
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			sliced := tableauRecords(t, w.prog, w.sched, false, shots, seed)
			rowMajor := tableauRecords(t, w.prog, w.sched, true, shots, seed)
			for shot := range sliced {
				diffRecords(t, "rowmajor vs sliced", shot, sliced[shot], rowMajor[shot])
			}
			sim, err := New(w.prog, w.sched)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, workers := range []int{1, 4, 8} {
				got := frameRecords(t, sim, shots, seed, workers)
				for shot := range sliced {
					diffRecords(t, fmt.Sprintf("frame(workers=%d) vs sliced", workers), shot, sliced[shot], got[shot])
				}
			}
		})
	}
}

// randomProgram compiles a random Clifford hardware circuit: every qubit
// prepared up front, then a stream of random one-qubit Cliffords, ZZ pairs,
// mid-circuit measurements and resets, then a full transversal readout.
func randomProgram(t testing.TB, rng *rand.Rand, nq, length int) *orqcs.Program {
	t.Helper()
	gates := []circuit.Gate{
		circuit.XPi2, circuit.XPi4, circuit.XmPi4,
		circuit.YPi2, circuit.YPi4, circuit.YmPi4,
		circuit.ZPi2, circuit.ZPi4, circuit.ZmPi4,
	}
	site := func(q int) grid.Site { return grid.Site{R: 0, C: q} }
	c := &circuit.Circuit{}
	now := int64(0)
	rec := int32(0)
	add := func(e circuit.Event) {
		e.Start, e.Dur = now, 100
		now += 1000
		c.Events = append(c.Events, e)
	}
	for q := 0; q < nq; q++ {
		add(circuit.Event{Gate: circuit.PrepareZ, S1: site(q), Record: -1})
	}
	for i := 0; i < length; i++ {
		q := rng.Intn(nq)
		switch r := rng.Float64(); {
		case r < 0.12 && nq > 1: // ZZ with a distinct partner
			p := (q + 1 + rng.Intn(nq-1)) % nq
			add(circuit.Event{Gate: circuit.ZZ, S1: site(q), S2: site(p), Record: -1})
		case r < 0.22: // mid-circuit measurement
			add(circuit.Event{Gate: circuit.MeasureZ, S1: site(q), Record: rec})
			rec++
		case r < 0.30: // mid-circuit reset
			add(circuit.Event{Gate: circuit.PrepareZ, S1: site(q), Record: -1})
		default:
			add(circuit.Event{Gate: gates[rng.Intn(len(gates))], S1: site(q), Record: -1})
		}
	}
	for q := 0; q < nq; q++ {
		add(circuit.Event{Gate: circuit.MeasureZ, S1: site(q), Record: rec})
		rec++
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatalf("compile random circuit: %v", err)
	}
	return prog
}

// TestFrameRandomPrograms is the differential property test: random Clifford
// programs with random fault firings, frame records bit-identical to both
// tableau engines record for record.
func TestFrameRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const shots = 32
	for trial := 0; trial < 8; trial++ {
		nq := 2 + rng.Intn(6)
		prog := randomProgram(t, rng, nq, 80+rng.Intn(120))
		var sched *noise.Schedule
		if trial%2 == 1 {
			// High physical rates so many faults fire per shot.
			sched = noise.Compile(noise.Depolarizing(0.05), prog)
		}
		seed := rng.Int63()
		sliced := tableauRecords(t, prog, sched, false, shots, seed)
		rowMajor := tableauRecords(t, prog, sched, true, shots, seed)
		sim, err := New(prog, sched)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		got := frameRecords(t, sim, shots, seed, 1+trial%4)
		for shot := range sliced {
			label := fmt.Sprintf("trial %d (nq=%d) frame vs sliced", trial, nq)
			diffRecords(t, label, shot, sliced[shot], got[shot])
			diffRecords(t, "sliced vs rowmajor", shot, sliced[shot], rowMajor[shot])
		}
	}
}

// TestFrameReferenceSeedImmaterial pins that the reference shot's seed never
// leaks into sampled records: the collapse masks absorb coin differences.
func TestFrameReferenceSeedImmaterial(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 2, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(2e-3), mem.Prog)
	var ref []map[int32]bool
	for i, rs := range []int64{refSeed, 1, -77, 123456789} {
		sim, err := newSim(mem.Prog, sched, rs)
		if err != nil {
			t.Fatal(err)
		}
		got := frameRecords(t, sim, 24, 5, 1)
		if i == 0 {
			ref = got
			continue
		}
		for shot := range ref {
			diffRecords(t, fmt.Sprintf("refSeed %d", rs), shot, ref[shot], got[shot])
		}
	}
}

// TestFrameEstimateManyMatchesTableau pins the streaming estimate — means
// and standard errors — float for float against the tableau path.
func TestFrameEstimateManyMatchesTableau(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prog := randomProgram(t, rng, 5, 60)
	sched := noise.Compile(noise.Depolarizing(0.02), prog)
	ops := []orqcs.SitePauli{
		{grid.Site{R: 0, C: 0}: pauli.Z},
		{grid.Site{R: 0, C: 1}: pauli.Z, grid.Site{R: 0, C: 2}: pauli.Z},
		{grid.Site{R: 0, C: 3}: pauli.X, grid.Site{R: 0, C: 4}: pauli.Y},
	}
	wantM, wantS, err := sched.EstimateMany(ops, 300, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		gotM, gotS, err := sim.EstimateMany(ops, 300, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ops {
			if gotM[j] != wantM[j] || gotS[j] != wantS[j] {
				t.Fatalf("workers=%d op %d: frame (%v ± %v) != tableau (%v ± %v)",
					workers, j, gotM[j], gotS[j], wantM[j], wantS[j])
			}
		}
	}
}

// TestFrameEstimateLogicalError pins Options.Sampler: same Result — early
// stopping included — as the tableau shot loop.
func TestFrameEstimateLogicalError(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(4e-3), mem.Prog)
	sim, err := New(mem.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []noise.Options{
		{Shots: 500, Seed: 3},
		{Shots: 4000, Seed: 3, TargetStdErr: 0.01, Batch: 128},
	} {
		want, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			o := opt
			o.Sampler = sim
			o.Workers = workers
			got, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference, o)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("workers=%d opt=%+v: frame %+v != tableau %+v", workers, opt, got, want)
			}
		}
	}
}

// TestFrameRejectsNonClifford pins the T-gate guard.
func TestFrameRejectsNonClifford(t *testing.T) {
	c := &circuit.Circuit{}
	s := grid.Site{R: 0, C: 0}
	c.Events = append(c.Events,
		circuit.Event{Gate: circuit.PrepareZ, S1: s, Start: 0, Dur: 100, Record: -1},
		circuit.Event{Gate: circuit.ZPi8, S1: s, Start: 1000, Dur: 100, Record: -1},
		circuit.Event{Gate: circuit.MeasureZ, S1: s, Start: 2000, Dur: 100, Record: 0},
	)
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog, nil); err == nil {
		t.Fatal("New accepted a non-Clifford program")
	}
}

// TestFrameBatchAllocs guards the zero-allocation contract of the hot loop:
// sampling batches through SamplePlanes and reading their record planes
// must not allocate, and neither may running a warmed batch and reading
// its per-lane record tables.
func TestFrameBatchAllocs(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
	sim, err := New(mem.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	b := sim.NewBatch()
	t.Run("planes", func(t *testing.T) {
		var sink uint64
		visit := func(p *noise.Planes) error {
			for _, w := range p.Words {
				sink ^= w & p.Lanes
			}
			return nil
		}
		bi := 0
		allocs := testing.AllocsPerRun(20, func() {
			if err := b.sampleBatch(bi, 64*20+37, 1, visit); err != nil {
				t.Fatal(err)
			}
			bi++
		})
		if allocs != 0 {
			t.Fatalf("plane batch loop allocates %v per batch, want 0", allocs)
		}
		_ = sink
	})
	t.Run("records", func(t *testing.T) {
		b.Run(0, 64, 1) // warm the record map
		b.Records(0)
		allocs := testing.AllocsPerRun(20, func() {
			b.Run(64, 64, 1)
			for lane := 0; lane < 64; lane += 13 {
				b.Records(lane)
			}
		})
		if allocs != 0 {
			t.Fatalf("frame batch loop allocates %v per run, want 0", allocs)
		}
	})
}

// TestSamplePlanesMatchesRecords pins the record plane against the per-lane
// record tables: every explicit record word bit equals Records(lane), the
// plane holds exactly Program.NumRecords words, batches tile the shots with
// a partial last batch, and the planes are identical for every worker
// count.
func TestSamplePlanesMatchesRecords(t *testing.T) {
	const shots, seed = 64*3 + 21, 5
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			sim, err := New(w.prog, w.sched)
			if err != nil {
				t.Fatal(err)
			}
			want := frameRecords(t, sim, shots, seed, 1)
			nrec := w.prog.NumRecords()
			for _, workers := range []int{1, 3} {
				var mu sync.Mutex
				seen := make([]bool, shots)
				err := sim.SamplePlanes(shots, seed, workers, func(p *noise.Planes) error {
					mu.Lock()
					defer mu.Unlock()
					if len(p.Words) != nrec {
						return fmt.Errorf("plane has %d words, program %d records", len(p.Words), nrec)
					}
					if p.Lanes != ^uint64(0)>>uint(64-p.N) || p.First%64 != 0 {
						return fmt.Errorf("batch at %d: %d lanes, mask %x", p.First, p.N, p.Lanes)
					}
					for lane := 0; lane < p.N; lane++ {
						shot := p.First + lane
						if seen[shot] {
							return fmt.Errorf("shot %d sampled twice", shot)
						}
						seen[shot] = true
						for id := range p.Words {
							if got := p.Words[id]>>uint(lane)&1 == 1; got != want[shot][int32(id)] {
								return fmt.Errorf("shot %d record %d: plane %v, records %v", shot, id, got, want[shot][int32(id)])
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for shot, ok := range seen {
					if !ok {
						t.Fatalf("workers=%d: shot %d never sampled", workers, shot)
					}
				}
			}
		})
	}
}
