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

// cacheEntry is one cache slot. ready is closed once art/err are final;
// joiners of an in-flight compile block on it without holding the cache
// lock.
type cacheEntry struct {
	key   Key
	ready chan struct{}
	art   *Artifact
	err   error
	cost  int
	elem  *list.Element // position in the LRU list (nil until ready)
}

// Cache is a concurrency-safe memoizing compile cache with singleflight
// dedup — simultaneous requests for one key trigger exactly one compile,
// the rest wait for it — and an LRU byte budget costed by encoded bundle
// size, so the resident set is bounded no matter how wide a sweep fans out.
type Cache struct {
	compile func(Key) (*Artifact, error)
	met     *telemetry.Locked // may be nil (uncounted)

	mu      sync.Mutex
	budget  int
	used    int
	entries map[Key]*cacheEntry
	lru     list.List // front = most recently used; values are *cacheEntry
}

// NewCache returns a cache holding at most budget encoded-artifact bytes
// (≥ 1; a single artifact larger than the budget is still served, then
// evicted by the next insertion). compile defaults to CompileArtifact and
// is injectable for tests. met, when non-nil, receives hit/miss/eviction
// counters.
func NewCache(budget int, compile func(Key) (*Artifact, error), met *telemetry.Locked) *Cache {
	if compile == nil {
		compile = CompileArtifact
	}
	c := &Cache{compile: compile, met: met, budget: budget, entries: map[Key]*cacheEntry{}}
	return c
}

// Stats returns the resident artifact count and encoded byte total.
func (c *Cache) Stats() (artifacts, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.used
}

func (c *Cache) inc(ctr telemetry.Counter) {
	if c.met != nil {
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
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		c.inc(CtrCacheHits)
		return e.art, true, nil
	}
	e := &cacheEntry{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.mu.Unlock()
	c.inc(CtrCacheMisses)

	e.art, e.err = c.compile(k)
	if e.err == nil {
		c.inc(CtrCompiles)
		e.cost = e.art.BundleBytes
	}
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, k)
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
	return e.art, false, nil
}

// evictLocked drops least-recently-used ready entries until the byte budget
// holds, never evicting keep (the entry just inserted) so every compile is
// served at least once. Called with c.mu held.
func (c *Cache) evictLocked(keep *cacheEntry) {
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		if e == keep {
			// keep is the oldest resident entry; nothing older to evict.
			return
		}
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.used -= e.cost
		c.inc(CtrCacheEvictions)
	}
}
