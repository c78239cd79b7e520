package serve

import (
	"container/list"
	"fmt"
	"sync"

	"tiscc/internal/experiment"
	"tiscc/internal/telemetry"
)

// Key identifies one compiled artifact: the full input of the deterministic
// compile pipeline. Rounds ≤ 0 means "use the distance" and is normalized
// to 0; P is meaningful for the depolarizing model only and is normalized
// to 0 for table5, so spelling variants of the same request share an entry.
type Key struct {
	Workload string
	Distance int
	Rounds   int
	Model    string
	P        float64
}

// Normalize canonicalizes the spelling variants that compile identically.
func (k Key) Normalize() Key {
	if k.Rounds == k.Distance || k.Rounds < 0 {
		k.Rounds = 0
	}
	if k.Model == ModelTable5 {
		k.P = 0
	}
	return k
}

// Spec maps the key onto the experiment spec it compiles (Rounds 0 means
// the distance in both).
func (k Key) Spec() (experiment.Spec, error) {
	m, err := experiment.Model(k.Model, k.P)
	if err != nil {
		return experiment.Spec{}, err
	}
	return experiment.Spec{Workload: k.Workload, Distance: k.Distance, Rounds: k.Rounds, Model: m}, nil
}

func (k Key) String() string {
	s := fmt.Sprintf("workload=%s d=%d", k.Workload, k.Distance)
	if k.Rounds > 0 {
		s += fmt.Sprintf(" rounds=%d", k.Rounds)
	}
	s += " model=" + k.Model
	if k.Model != ModelTable5 {
		s += fmt.Sprintf(" p=%g", k.P)
	}
	return s
}

// entryKey names one cache entry: an artifact's normalized key, or, with
// shape set, a shape's key (shapeKey).
type entryKey struct {
	Key
	shape bool
}

// cacheEntry is one cache slot, an artifact or a shape. ready is closed
// once art (or sh) and err are final; joiners of an in-flight build block
// on it without holding the cache lock.
type cacheEntry struct {
	key   entryKey
	ready chan struct{}
	art   *Artifact
	sh    *shape
	err   error
	cost  int
	elem  *list.Element // position in the LRU list (nil until ready and after eviction)
}

// Cache is a concurrency-safe memoizing compile cache with singleflight
// dedup — simultaneous requests for one key trigger exactly one compile,
// the rest wait for it — and an LRU byte budget, so the resident set is
// bounded no matter how wide a sweep fans out. It holds two kinds of
// entries under one budget and one LRU order: artifacts, costed by their
// encoded bundle size, and the shapes (workload, distance, rounds) the
// default compile builds artifacts on, costed by shape.cost. A miss on a
// key whose shape is cached compiles only what depends on the noise model;
// concurrent misses on one shape build it once.
type Cache struct {
	compile func(Key) (*Artifact, error)
	met     *telemetry.Locked // may be nil (uncounted)

	mu      sync.Mutex
	budget  int
	used    int
	entries map[entryKey]*cacheEntry
	lru     list.List // front = most recently used; values are *cacheEntry
}

// NewCache returns a cache holding at most budget bytes of artifacts and
// shapes (≥ 1; a single entry larger than the budget is still served, then
// evicted by the next insertion). compile defaults to compiling on the
// cache's shapes (byte-identical to CompileArtifact) and is injectable for
// tests, which then bypass the shapes. met, when non-nil, receives
// hit/miss/eviction and shape counters.
func NewCache(budget int, compile func(Key) (*Artifact, error), met *telemetry.Locked) *Cache {
	c := &Cache{compile: compile, met: met, budget: budget, entries: map[entryKey]*cacheEntry{}}
	if c.compile == nil {
		c.compile = c.compileShaped
	}
	return c
}

// Stats returns the resident artifact count and the bytes charged by every
// resident entry, shapes included.
func (c *Cache) Stats() (artifacts, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).art != nil {
			artifacts++
		}
	}
	return artifacts, c.used
}

// noCounter marks an event get does not count.
const noCounter telemetry.Counter = -1

func (c *Cache) inc(ctr telemetry.Counter) {
	if c.met != nil && ctr != noCounter {
		c.met.Inc(ctr)
	}
}

// Get returns the artifact for k, compiling it on first use. hit reports
// whether this call was served without triggering a compile of its own
// (a warm entry or a joined in-flight compile). Concurrent Gets for the
// same key share one compile; a failed compile is not cached, so later
// requests retry.
func (c *Cache) Get(k Key) (art *Artifact, hit bool, err error) {
	k = k.Normalize()
	e, hit, err := c.get(entryKey{Key: k}, CtrCacheHits, CtrCacheMisses, CtrCompiles, func(e *cacheEntry) error {
		a, err := c.compile(k)
		if err == nil {
			e.art, e.cost = a, a.BundleBytes
		}
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return e.art, hit, nil
}

// compileShaped compiles k's artifact on its cached shape, building the
// shape on first use (counted as shape_compiles; a warm or joined shape
// counts as a shape hit), then re-charges the shape, whose circuit may
// have kept a new plan.
func (c *Cache) compileShaped(k Key) (*Artifact, error) {
	se, _, err := c.get(entryKey{Key: shapeKey(k), shape: true}, CtrShapeHits, noCounter, CtrShapeCompiles, func(e *cacheEntry) error {
		sh, err := newShape(k)
		if err == nil {
			e.sh, e.cost = sh, sh.cost()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	a, err := se.sh.compile(k)
	c.mu.Lock()
	if se.elem != nil {
		cost := se.sh.cost()
		c.used += cost - se.cost
		se.cost = cost
		c.evictLocked(se)
	}
	c.mu.Unlock()
	return a, err
}

// get returns the entry for key, running build on first use: the
// singleflight, LRU and budget logic both entry kinds share. hit reports
// a warm entry or a joined in-flight build; hits, misses and builds name
// the counters of a hit, a miss and a successful build.
func (c *Cache) get(key entryKey, hits, misses, builds telemetry.Counter, build func(*cacheEntry) error) (*cacheEntry, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		c.inc(hits)
		return e, true, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.inc(misses)

	e.err = build(e)
	if e.err == nil {
		c.inc(builds)
	}
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.elem = c.lru.PushFront(e)
		c.used += e.cost
		c.evictLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
	if e.err != nil {
		return nil, false, e.err
	}
	return e, false, nil
}

// evictLocked drops least-recently-used ready entries until the byte budget
// holds, never evicting keep (the entry just inserted or re-charged) so
// every compile is served at least once. Called with c.mu held.
func (c *Cache) evictLocked(keep *cacheEntry) {
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		if e == keep {
			// keep is the oldest resident entry; nothing older to evict.
			return
		}
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.used -= e.cost
		c.inc(CtrCacheEvictions)
	}
}
