package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tiscc/internal/noise"
	"tiscc/internal/telemetry"
)

// fakeCompile returns a compile function that counts invocations and
// produces lightweight artifacts of the given cost.
func fakeCompile(calls *atomic.Int64, cost int) func(Key) (*Artifact, error) {
	return func(k Key) (*Artifact, error) {
		calls.Add(1)
		return &Artifact{Key: k, BundleBytes: cost}, nil
	}
}

func TestCacheSingleflight(t *testing.T) {
	var calls atomic.Int64
	met := telemetry.NewLocked(MetricsSchema)
	c := NewCache(1<<20, fakeCompile(&calls, 100), met)

	const goroutines = 32
	k := Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3}
	arts := make([]*Artifact, goroutines)
	hits := make([]bool, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			art, hit, err := c.Get(k)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			arts[i], hits[i] = art, hit
		}(i)
	}
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times for one key, want 1", n)
	}
	misses := 0
	for i := range arts {
		if arts[i] != arts[0] {
			t.Fatalf("goroutine %d got a different artifact pointer", i)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d goroutines reported a miss, want exactly 1 (the compiler)", misses)
	}
	if got := met.Counter(CtrCompiles); got != 1 {
		t.Fatalf("compiles counter %d, want 1", got)
	}
	if got := met.Counter(CtrCacheHits); got != goroutines-1 {
		t.Fatalf("cache_hits counter %d, want %d", got, goroutines-1)
	}
	if got := met.Counter(CtrCacheMisses); got != 1 {
		t.Fatalf("cache_misses counter %d, want 1", got)
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	var calls atomic.Int64
	c := NewCache(1<<20, fakeCompile(&calls, 100), nil)

	// rounds == distance and rounds == 0 are the same artifact; table5
	// ignores p.
	variants := []Key{
		{Workload: WorkloadMemory, Distance: 5, Rounds: 0, Model: ModelTable5, P: 0},
		{Workload: WorkloadMemory, Distance: 5, Rounds: 5, Model: ModelTable5, P: 1e-3},
		{Workload: WorkloadMemory, Distance: 5, Rounds: -1, Model: ModelTable5, P: 0.5},
	}
	for _, k := range variants {
		if _, _, err := c.Get(k); err != nil {
			t.Fatalf("Get(%v): %v", k, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times across normalized-equal keys, want 1", n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	var calls atomic.Int64
	met := telemetry.NewLocked(MetricsSchema)
	c := NewCache(250, fakeCompile(&calls, 100), met) // room for 2 entries

	key := func(d int) Key {
		return Key{Workload: WorkloadMemory, Distance: d, Model: ModelDepolarizing, P: 1e-3}
	}
	for d := 2; d <= 4; d++ { // fill: d=2, d=3, then d=4 evicts d=2
		if _, _, err := c.Get(key(d)); err != nil {
			t.Fatalf("Get(d=%d): %v", d, err)
		}
	}
	if n, bytes := c.Stats(); n != 2 || bytes != 200 {
		t.Fatalf("cache holds %d artifacts / %d bytes, want 2 / 200", n, bytes)
	}
	if got := met.Counter(CtrCacheEvictions); got != 1 {
		t.Fatalf("evictions counter %d, want 1", got)
	}

	// d=3 and d=4 are resident; touching d=3 then inserting d=5 must evict
	// d=4, the least recently used.
	if _, hit, _ := c.Get(key(3)); !hit {
		t.Fatal("d=3 should be resident")
	}
	if _, _, err := c.Get(key(5)); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.Get(key(3)); !hit {
		t.Fatal("d=3 should have survived the eviction (recently used)")
	}
	before := calls.Load()
	if _, hit, _ := c.Get(key(4)); hit {
		t.Fatal("d=4 should have been evicted")
	}
	if calls.Load() != before+1 {
		t.Fatal("evicted entry should recompile")
	}
}

func TestCacheOversizedArtifactStillServed(t *testing.T) {
	var calls atomic.Int64
	c := NewCache(10, fakeCompile(&calls, 100), nil) // every artifact over budget
	k := Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3}
	art, _, err := c.Get(k)
	if err != nil || art == nil {
		t.Fatalf("oversized artifact not served: %v", err)
	}
	// The lone over-budget entry stays resident until something replaces it.
	if _, hit, _ := c.Get(k); !hit {
		t.Fatal("lone entry should remain resident")
	}
	if _, _, err := c.Get(Key{Workload: WorkloadMemory, Distance: 5, Model: ModelDepolarizing, P: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.Get(k); hit {
		t.Fatal("over-budget entry should be evicted once another arrives")
	}
}

func TestCacheFailedCompileNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	c := NewCache(1<<20, func(k Key) (*Artifact, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return &Artifact{Key: k, BundleBytes: 1}, nil
	}, nil)
	k := Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3}
	if _, _, err := c.Get(k); !errors.Is(err, boom) {
		t.Fatalf("first Get err = %v, want boom", err)
	}
	art, hit, err := c.Get(k)
	if err != nil || art == nil {
		t.Fatalf("retry after failed compile: %v", err)
	}
	if hit {
		t.Fatal("retry should be a miss (failure was not cached)")
	}
	if calls.Load() != 2 {
		t.Fatalf("compile ran %d times, want 2 (failure + retry)", calls.Load())
	}
}

// TestCacheConcurrentMixed hammers the cache with many keys, evictions and
// joiners at once; run under -race in CI to prove the locking discipline.
func TestCacheConcurrentMixed(t *testing.T) {
	var calls atomic.Int64
	met := telemetry.NewLocked(MetricsSchema)
	c := NewCache(500, fakeCompile(&calls, 100), met)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := Key{Workload: WorkloadMemory, Distance: 2 + (g+i)%10, Model: ModelDepolarizing, P: 1e-3}
				art, _, err := c.Get(k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if art.Key != k.Normalize() {
					t.Errorf("got artifact for %v, want %v", art.Key, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	n, bytes := c.Stats()
	if bytes > 500 {
		t.Fatalf("cache over budget after churn: %d bytes", bytes)
	}
	if n != bytes/100 {
		t.Fatalf("inconsistent stats: %d artifacts, %d bytes", n, bytes)
	}
	snap := met.Snapshot()
	if err := snap.Check(); err != nil {
		t.Fatalf("telemetry check: %v", err)
	}
	if snap.Counter("cache_hits")+snap.Counter("cache_misses") != 16*50 {
		t.Fatalf("hits+misses = %d, want %d",
			snap.Counter("cache_hits")+snap.Counter("cache_misses"), 16*50)
	}
}

// TestCacheConcurrentShape sends concurrent misses on keys of one shape:
// the shape is built once and every other miss compiles on it, each
// artifact equal to a fresh CompileArtifact's. Run under -race in CI.
func TestCacheConcurrentShape(t *testing.T) {
	met := telemetry.NewLocked(MetricsSchema)
	c := NewCache(64<<20, nil, met)
	ps := []float64{1e-3, 2e-3, 3e-3, 5e-3, 7e-3, 1e-2}
	arts := make([]*Artifact, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			art, _, err := c.Get(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: p})
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			arts[i] = art
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := met.Counter(CtrShapeCompiles); got != 1 {
		t.Fatalf("shape_compiles = %d for %d concurrent misses on one shape, want 1", got, len(ps))
	}
	if got := met.Counter(CtrShapeHits); got != uint64(len(ps)-1) {
		t.Fatalf("shape_hits = %d, want %d", got, len(ps)-1)
	}
	if got := met.Counter(CtrCompiles); got != uint64(len(ps)) {
		t.Fatalf("compiles = %d, want %d", got, len(ps))
	}
	for i, art := range arts {
		fresh, err := CompileArtifact(art.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeBundle(art), EncodeBundle(fresh)) || art.BundleCRC != fresh.BundleCRC || art.Distance != fresh.Distance {
			t.Fatalf("key %d: artifact differs from CompileArtifact's", i)
		}
		if art.Prog != arts[0].Prog {
			t.Fatalf("key %d: artifacts of one shape should share its decoded program", i)
		}
	}
	if n, bytes := c.Stats(); n != len(ps) || bytes <= 0 {
		t.Fatalf("Stats = %d artifacts, %d bytes", n, bytes)
	}
}

// TestShapeCostChargesPlanSchedule checks that a shape's charge against the
// byte budget counts what its first compile's plan keeps: the effect table
// and the schedule it keeps for the site check. The cost grows by at least
// both.
func TestShapeCostChargesPlanSchedule(t *testing.T) {
	k := Key{Workload: WorkloadMemory, Distance: 5, Model: ModelDepolarizing, P: 1e-3}.Normalize()
	sh, err := newShape(shapeKey(k))
	if err != nil {
		t.Fatal(err)
	}
	before := sh.cost()
	if _, err := sh.compile(k); err != nil {
		t.Fatal(err)
	}
	spec, err := k.Spec()
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(spec.Model, sh.circ.Prog)
	det := sh.circ.Detectors
	checks := make([][]int32, len(det.Dets))
	for i := range det.Dets {
		checks[i] = det.Dets[i].Recs
	}
	eff, err := noise.CompileEffects(sched, checks, det.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if grown := sh.cost() - before; grown < sched.Bytes()+eff.Bytes() {
		t.Fatalf("shape cost grew by %d bytes after its first compile, less than the %d-byte schedule and %d-byte effect table its plan keeps", grown, sched.Bytes(), eff.Bytes())
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Workload: WorkloadMemory, Distance: 5, Rounds: 7, Model: ModelDepolarizing, P: 1e-3}
	want := "workload=memory d=5 rounds=7 model=depolarizing p=0.001"
	if got := k.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	k5 := Key{Workload: WorkloadSurgery, Distance: 3, Model: ModelTable5}
	if got, want := k5.String(), "workload=surgery d=3 model=table5"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// fmt.Stringer is what the server log uses.
	if got := fmt.Sprintf("%v", k5); got != k5.String() {
		t.Fatalf("Sprintf(%%v) = %q, want %q", got, k5.String())
	}
}
