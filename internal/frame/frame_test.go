package frame_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/frame"
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
// batches spread over a worker pool as SampleFired spreads them.
func frameRecords(t testing.TB, sim *frame.Sim, shots int, seed int64, workers int) []map[int32]bool {
	t.Helper()
	out := make([]map[int32]bool, shots)
	err := orqcs.RunPool(frame.Batches(shots), workers, sim.NewBatch, func(b *frame.Batch, bi int) error {
		b.RunBatch(bi, shots, seed)
		for lane := 0; lane < b.Planes().N; lane++ {
			out[b.Planes().First+lane] = maps.Clone(b.Records(lane))
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
			sim, err := frame.New(w.prog, w.sched)
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
// mid-circuit measurements and resets, then a full transversal readout,
// then tail unitary gates walking over the qubits (each qubit in turn, a ZZ
// with its neighbour or a random Z-bus Clifford), so the program ends in a
// gate and its trailing fault slot is not empty. Tail gates commute with Z,
// so Z-type operators keep a definite value that the trailing faults flip.
func randomProgram(t testing.TB, rng *rand.Rand, nq, length, tail int) *orqcs.Program {
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
	zbus := gates[6:] // Z_{π/2}, Z_{π/4}, Z_{−π/4}
	for i := 0; i < tail; i++ {
		q := i % nq
		if i%3 == 1 && nq > 1 {
			add(circuit.Event{Gate: circuit.ZZ, S1: site(q), S2: site((q + 1) % nq), Record: -1})
		} else {
			add(circuit.Event{Gate: zbus[rng.Intn(len(zbus))], S1: site(q), Record: -1})
		}
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
		prog := randomProgram(t, rng, nq, 80+rng.Intn(120), 0)
		var sched *noise.Schedule
		if trial%2 == 1 {
			// High physical rates so many faults fire per shot.
			sched = noise.Compile(noise.Depolarizing(0.05), prog)
		}
		seed := rng.Int63()
		sliced := tableauRecords(t, prog, sched, false, shots, seed)
		rowMajor := tableauRecords(t, prog, sched, true, shots, seed)
		sim, err := frame.New(prog, sched)
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
// The first sampler runs on the program's shared trace, the others on
// unmemoized traces of other seeds.
func TestFrameReferenceSeedImmaterial(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 2, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(2e-3), mem.Prog)
	var ref []map[int32]bool
	for i, rs := range []int64{0, 1, -77, 123456789} {
		trace, err := mem.Prog.Reference()
		if i > 0 {
			trace, err = orqcs.NewReference(mem.Prog, rs)
		}
		if err != nil {
			t.Fatal(err)
		}
		sim, err := frame.NewSim(mem.Prog, sched, trace)
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
// and standard errors — float for float against the tableau path, on a
// random program and on one that ends in gates after its readout, whose
// faults sit in the trailing slot (after the last instruction).
func TestFrameEstimateManyMatchesTableau(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	progs := []struct {
		name string
		prog *orqcs.Program
	}{
		{"random", randomProgram(t, rng, 5, 60, 0)},
		{"gate-tail", randomProgram(t, rng, 5, 60, 12)},
	}
	ops := []orqcs.SitePauli{
		{grid.Site{R: 0, C: 0}: pauli.Z},
		{grid.Site{R: 0, C: 1}: pauli.Z, grid.Site{R: 0, C: 2}: pauli.Z},
		{grid.Site{R: 0, C: 3}: pauli.X, grid.Site{R: 0, C: 4}: pauli.Y},
	}
	for _, pc := range progs {
		t.Run(pc.name, func(t *testing.T) {
			sched := noise.Compile(noise.Depolarizing(0.02), pc.prog)
			if pc.name == "gate-tail" && len(sched.SlotFaults(pc.prog.NumInstrs())) == 0 {
				t.Fatal("gate tail left the trailing fault slot empty")
			}
			wantM, wantS, err := orqcs.EstimateMany(pc.prog, sched.RunShot, ops, 300, 9, 1)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := frame.New(pc.prog, sched)
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
		})
	}
}

// z95 is the two-sided 95% standard-normal quantile behind the estimator's
// Wilson early-stopping criterion.
const z95 = 1.959963984540054

// TestFrameEstimateLogicalError pins the estimator's raw readout on the
// frame sampler against the tableau shot loop: the frame-sampled estimate,
// which reads each batch's firings through the outcome formula's effect
// table, counts exactly the shots whose tableau records, read through the
// outcome formula, disagree with the reference — over the same shots and,
// with early stopping, the same counted prefix, at one and four workers.
func TestFrameEstimateLogicalError(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(4e-3), mem.Prog)
	sim, err := frame.New(mem.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]bool, 4000)
	if err := orqcs.RunShots(mem.Prog, sched.RunShot, len(bad), 3, 0, func(i int, e *orqcs.Engine) error {
		bad[i] = mem.Outcome.Eval(e.Records()) != mem.Reference
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []noise.Options{
		{Shots: 500, Seed: 3},
		{Shots: 4000, Seed: 3, TargetStdErr: 0.01, Batch: 128},
	} {
		// The tableau's counted prefix: every shot, or the first Batch
		// boundary at which the Wilson criterion meets the target.
		want, n := 0, opt.Shots
		for i := range opt.Shots {
			if bad[i] {
				want++
			}
			if lo, hi := noise.Wilson(want, i+1); opt.TargetStdErr > 0 && (i+1)%opt.Batch == 0 && (hi-lo)/(2*z95) <= opt.TargetStdErr {
				n = i + 1
				break
			}
		}
		for _, workers := range []int{1, 4} {
			o := opt
			o.Workers, o.Sampler = workers, sim
			got, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference, o)
			if err != nil {
				t.Fatal(err)
			}
			if got.Shots != n || got.Errors != want {
				t.Fatalf("workers=%d opt=%+v: frame %d/%d errors, tableau %d/%d", workers, opt, got.Errors, got.Shots, want, n)
			}
		}
		if n == opt.Shots && opt.TargetStdErr > 0 {
			t.Fatalf("opt=%+v: the target was never met, so early stopping went untested", opt)
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
	if _, err := frame.New(prog, nil); err == nil {
		t.Fatal("New accepted a non-Clifford program")
	}
}

// TestFrameBatchAllocs guards the zero-allocation contract of the hot loop:
// running a warmed batch and reading its record words must not allocate,
// nor may sampling fire-only batches, nor reading a warmed batch's
// per-lane record tables.
func TestFrameBatchAllocs(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
	sim, err := frame.New(mem.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	b := sim.NewBatch()
	t.Run("planes", func(t *testing.T) {
		var sink uint64
		bi := 0
		allocs := testing.AllocsPerRun(20, func() {
			b.RunBatch(bi, 64*20+37, 1)
			for _, w := range b.RecordWords() {
				sink ^= w & b.Planes().Lanes
			}
			bi++
		})
		if allocs != 0 {
			t.Fatalf("record-word batch loop allocates %v per batch, want 0", allocs)
		}
		_ = sink
	})
	t.Run("fire-only", func(t *testing.T) {
		bi := 0
		allocs := testing.AllocsPerRun(20, func() {
			if err := b.SampleFiredBatch(bi, 64*20+37, 1, func(*noise.Planes) error { return nil }); err != nil {
				t.Fatal(err)
			}
			bi++
		})
		if allocs != 0 {
			t.Fatalf("fire-only batch loop allocates %v per batch, want 0", allocs)
		}
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

// TestSamplePlanesMatchesRecords pins the record planes a run writes
// (Batch.RecordWords) against the per-lane record tables: every explicit
// record word bit equals Records(lane), a batch holds exactly
// Program.NumRecords words, batches tile the shots with a partial last
// batch, and the words are identical for every worker count.
func TestSamplePlanesMatchesRecords(t *testing.T) {
	const shots, seed = 64*3 + 21, 5
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			sim, err := frame.New(w.prog, w.sched)
			if err != nil {
				t.Fatal(err)
			}
			want := frameRecords(t, sim, shots, seed, 1)
			nrec := w.prog.NumRecords()
			for _, workers := range []int{1, 3} {
				var mu sync.Mutex
				seen := make([]bool, shots)
				err := orqcs.RunPool(frame.Batches(shots), workers, sim.NewBatch, func(b *frame.Batch, bi int) error {
					b.RunBatch(bi, shots, seed)
					mu.Lock()
					defer mu.Unlock()
					p, words := b.Planes(), b.RecordWords()
					if len(words) != nrec {
						return fmt.Errorf("batch has %d record words, program %d records", len(words), nrec)
					}
					if p.Lanes != ^uint64(0)>>uint(64-p.N) || p.First != 64*bi {
						return fmt.Errorf("batch at %d: %d lanes, mask %x", p.First, p.N, p.Lanes)
					}
					for lane := 0; lane < p.N; lane++ {
						shot := p.First + lane
						if seen[shot] {
							return fmt.Errorf("shot %d sampled twice", shot)
						}
						seen[shot] = true
						for id := range words {
							if got := words[id]>>uint(lane)&1 == 1; got != want[shot][int32(id)] {
								return fmt.Errorf("shot %d record %d: word %v, records %v", shot, id, got, want[shot][int32(id)])
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

// TestSampleFiredMatchesPlanes pins the fire-only planes against record
// runs of the same shots: each batch has the same lanes and the same Fired
// list, at every worker count. The sampler's counters stay honest without
// the walk: shots, batches, faults fired, the faults-per-batch histogram
// and the measurement and reset counts equal the record run's, and only
// the walk's collapse multiplications stay at zero.
func TestSampleFiredMatchesPlanes(t *testing.T) {
	const shots, seed = 64*3 + 21, 5
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			rec, err := frame.New(w.prog, w.sched)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]uint64, frame.Batches(shots))
			b := rec.NewBatch()
			for bi := range want {
				b.RunBatch(bi, shots, seed)
				want[bi] = slices.Clone(b.Planes().Fired)
			}
			for _, workers := range []int{1, 3} {
				fired, err := frame.New(w.prog, w.sched)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				seen := make([]bool, len(want))
				err = fired.SampleFired(shots, seed, workers, func(p *noise.Planes) error {
					mu.Lock()
					defer mu.Unlock()
					bi := p.First / 64
					if p.N != min(64, shots-p.First) || p.Lanes != ^uint64(0)>>uint(64-p.N) || seen[bi] {
						return fmt.Errorf("batch at %d: %d lanes, mask %x, seen %v", p.First, p.N, p.Lanes, seen[bi])
					}
					seen[bi] = true
					if !slices.Equal(p.Fired, want[bi]) {
						return fmt.Errorf("batch at %d: fire-only firings differ from the record batch's", p.First)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if slices.Contains(seen, false) {
					t.Fatalf("workers=%d: a batch was never sampled", workers)
				}
				got, ref := fired.Metrics(), rec.Metrics()
				for _, c := range []string{"shots", "batches", "faults_fired", "meas_det", "meas_random", "resets"} {
					if got.Counter(c) != ref.Counter(c) {
						t.Fatalf("workers=%d: fire-only run counts %s = %d, the record run %d", workers, c, got.Counter(c), ref.Counter(c))
					}
				}
				if !reflect.DeepEqual(got.Hist("faults_per_batch"), ref.Hist("faults_per_batch")) {
					t.Fatalf("workers=%d: faults-per-batch histograms differ", workers)
				}
				if n := got.Counter("collapse_mults"); n != 0 {
					t.Fatalf("workers=%d: fire-only run counted %d collapse multiplications", workers, n)
				}
			}
		})
	}
}

// TestReferenceSharedConcurrent runs samplers on a fresh program from 8
// goroutines at once: the first Program.Reference call races the others,
// batches run and operators compile (expectations read the trace's shared
// final tableau) concurrently. Every sampler must hold the one trace and
// reproduce, lane for lane, the records and values of a sequential run on
// an identical fresh program.
func TestReferenceSharedConcurrent(t *testing.T) {
	ops := []orqcs.SitePauli{
		{grid.Site{R: 0, C: 0}: pauli.Z},
		{grid.Site{R: 0, C: 1}: pauli.X, grid.Site{R: 0, C: 2}: pauli.Z},
	}
	type run struct {
		ref  *orqcs.Reference
		recs []map[int32]bool
		vals []float64
	}
	sample := func(prog *orqcs.Program, sched *noise.Schedule) (run, error) {
		sim, err := frame.New(prog, sched)
		if err != nil {
			return run{}, err
		}
		r := run{ref: sim.Trace()}
		b := sim.NewBatch()
		b.Run(0, 64, 11)
		for lane := 0; lane < 64; lane++ {
			r.recs = append(r.recs, maps.Clone(b.Records(lane)))
		}
		for _, op := range ops {
			o, err := sim.CompileOp(op)
			if err != nil {
				return run{}, err
			}
			for lane := 0; lane < 64; lane++ {
				r.vals = append(r.vals, b.Value(o, lane))
			}
		}
		return r, nil
	}
	fresh := func() (*orqcs.Program, *noise.Schedule) {
		prog := randomProgram(t, rand.New(rand.NewSource(8)), 6, 240, 0)
		return prog, noise.Compile(noise.Depolarizing(0.01), prog)
	}
	want, err := sample(fresh())
	if err != nil {
		t.Fatal(err)
	}
	prog, sched := fresh()
	got := make([]run, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = sample(prog, sched)
		}()
	}
	wg.Wait()
	shared, err := prog.Reference()
	if err != nil {
		t.Fatal(err)
	}
	for g, r := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if r.ref != shared {
			t.Fatalf("goroutine %d: sampler holds its own reference trace", g)
		}
		for lane := range want.recs {
			diffRecords(t, fmt.Sprintf("goroutine %d", g), lane, want.recs[lane], r.recs[lane])
		}
		if !slices.Equal(r.vals, want.vals) {
			t.Fatalf("goroutine %d: operator values %v, sequential %v", g, r.vals, want.vals)
		}
	}
}
