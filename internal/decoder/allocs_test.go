package decoder

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
	"testing"

	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// TestDecodeZeroAllocs extends the noisy-loop allocation guard across the
// decoder: a full shot — fault injection plus union-find decoding of the
// syndrome, with always-on telemetry counting underneath — must allocate
// nothing once the engine scratch and the pooled decoder scratch are warm.
func TestDecodeZeroAllocs(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Extract(mem)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(2e-3), mem.Prog)
	g, err := CompileGraph(det, sched)
	if err != nil {
		t.Fatal(err)
	}
	eng := orqcs.NewFromProgram(mem.Prog)
	for i := 0; i < 3; i++ {
		sched.RunShot(eng, orqcs.ShotSeed(1, i))
		g.DecodeOutcome(eng.Records())
	}
	shot := 3
	allocs := testing.AllocsPerRun(50, func() {
		sched.RunShot(eng, orqcs.ShotSeed(1, shot))
		g.DecodeOutcome(eng.Records())
		shot++
	})
	if allocs != 0 {
		t.Fatalf("noisy decode loop allocates %.1f objects/shot, want 0", allocs)
	}
	// The production path: a fire-only frame batch drawn and decoded 64
	// shots at a time in detector space, and the same decode of a batch
	// that also walked the program.
	sim, err := frame.New(mem.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	batch := sim.NewBatch()
	for name, fill := range map[string]func(first, count int, seed int64){"fire-only": batch.Draw, "record": batch.Run} {
		fill(0, 64, 1)
		g.DecodePlanes(batch.Planes())
		first := 64
		allocs = testing.AllocsPerRun(50, func() {
			fill(first, 64, 1)
			g.DecodePlanes(batch.Planes())
			first += 64
		})
		if allocs != 0 {
			t.Fatalf("%s batch decode loop allocates %.1f objects/batch, want 0", name, allocs)
		}
	}
	snap := g.Metrics()
	if snap.Counter("shots") == 0 {
		t.Fatal("decoder telemetry counted no shots during the alloc guard")
	}
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchSurvivesGC pins the decoder's scratch reuse: a garbage
// collection between shots must not make the graph allocate a new scratch,
// which would also register a new telemetry shard with the graph for good —
// a leak on graphs that live as long as the service's artifact cache.
func TestScratchSurvivesGC(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	sched := noise.Compile(noise.Depolarizing(2e-2), mem.Prog)
	g := mustGraph(t, mustDetectors(t, mem), sched)
	eng := orqcs.NewFromProgram(mem.Prog)
	for shot := 0; shot < 20; shot++ {
		sched.RunShot(eng, orqcs.ShotSeed(5, shot))
		g.DecodeOutcome(eng.Records())
		if len(g.all) != 1 {
			t.Fatalf("shot %d: the graph holds %d scratches after sequential decodes, want 1", shot, len(g.all))
		}
		runtime.GC()
	}
	if n := g.Metrics().Counter("shots"); n != 20 {
		t.Fatalf("decoder counted %d shots, want 20", n)
	}
}

// TestScratchClaimConcurrent decodes the same shots from several goroutines
// while collections empty the scratch pool: every decode must match the
// sequential one (no two decodes ever share a scratch), and the graph must
// hold no more scratches than decodes ever ran at once.
func TestScratchClaimConcurrent(t *testing.T) {
	const workers, shots = 4, 64
	mem := mustMemory(t, 3, 3, pauli.Z)
	sched := noise.Compile(noise.Depolarizing(2e-2), mem.Prog)
	g := mustGraph(t, mustDetectors(t, mem), sched)
	eng := orqcs.NewFromProgram(mem.Prog)
	recs := make([]map[int32]bool, shots)
	want := make([]bool, shots)
	for i := range recs {
		sched.RunShot(eng, orqcs.ShotSeed(7, i))
		recs[i] = maps.Clone(eng.Records())
		want[i] = g.DecodeOutcome(recs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 8 {
				for i := range recs {
					if got := g.DecodeOutcome(recs[i]); got != want[i] {
						errs <- fmt.Sprintf("worker %d shot %d: decoded %v, sequential %v", w, i, got, want[i])
						return
					}
				}
				if w == 0 && rep%2 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := len(g.all); n > workers {
		t.Fatalf("the graph holds %d scratches for %d concurrent workers", n, workers)
	}
	if n := g.Metrics().Counter("shots"); n != shots*(1+workers*8) {
		t.Fatalf("decoder counted %d shots, want %d", n, shots*(1+workers*8))
	}
}
