// Package telemetry is a zero-allocation metrics layer for the simulation
// pipeline: monotonic counters and fixed log2-bucket histograms collected in
// per-worker shards, merged into immutable snapshots at batch boundaries.
//
// The design constraint is the repo's signature invariant — the noisy shot
// loop must stay at 0 allocs/shot and bit-identical across worker counts —
// so the hot path is a plain slice index plus an integer add on a
// single-owner Shard: no atomics, no locks, no interface calls, and no
// allocation. Cross-shard aggregation happens only at quiescence (after the
// worker pool has drained) via Set.Snapshot, which merges all shards under
// the registration lock.
//
// Every instrument is declared up front in a Schema; Counter and HistID are
// plain indices into the shard's backing arrays, so adding an increment to a
// hot loop costs one add and cannot perturb the RNG streams that determinism
// depends on.
package telemetry

import (
	"fmt"
	"math/bits"
	"sync"
)

// Counter indexes a named monotonic counter within a Schema.
type Counter int

// HistID indexes a named histogram within a Schema.
type HistID int

// NumBuckets is the fixed number of log2 histogram buckets. Bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]
// (bucket 0 holds v == 0); the last bucket absorbs everything ≥ 2^31.
const NumBuckets = 33

// Schema declares the instruments of one pipeline component. The positions
// of names in Counters and Hists define the Counter/HistID indices used by
// the instrumentation, so a schema is append-only once referenced.
type Schema struct {
	// Component names the subsystem ("sampler", "decoder", ...); it becomes
	// the metric-name prefix in Prometheus exposition and the metrics key in
	// run manifests.
	Component string
	Counters  []string
	Hists     []string
}

// counterIndex returns the Counter for name, or -1.
func (s *Schema) counterIndex(name string) int {
	for i, n := range s.Counters {
		if n == name {
			return i
		}
	}
	return -1
}

func (s *Schema) histIndex(name string) int {
	for i, n := range s.Hists {
		if n == name {
			return i
		}
	}
	return -1
}

// Hist is a fixed-size log2-bucket histogram. The zero value is empty and
// ready to use. Observe is a few integer ops and never allocates.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [NumBuckets]uint64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i (the "le" label
// in Prometheus terms): 0, 1, 3, 7, ... The last bucket is unbounded and
// reports the bound of its nominal range.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bucketOf(v)]++
}

// merge adds o into h. Max is the max of the two.
func (h *Hist) merge(o *Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// check verifies internal consistency (bucket totals match Count).
func (h *Hist) check(name string) error {
	var total uint64
	for _, b := range h.Buckets {
		total += b
	}
	if total != h.Count {
		return fmt.Errorf("telemetry: histogram %q bucket total %d != count %d", name, total, h.Count)
	}
	if h.Count == 0 && (h.Sum != 0 || h.Max != 0) {
		return fmt.Errorf("telemetry: histogram %q empty but sum=%d max=%d", name, h.Sum, h.Max)
	}
	return nil
}

// Shard is a single-owner slice of instruments: one worker (engine, frame
// batch, decoder scratch) increments it without synchronization. Shards are
// created by Set.NewShard (registered, merged by Snapshot) or NewShard
// (standalone). All methods are unsynchronized by design; a shard must not
// be shared between goroutines.
type Shard struct {
	c []uint64
	h []Hist
}

func newShard(schema *Schema) *Shard {
	return &Shard{
		c: make([]uint64, len(schema.Counters)),
		h: make([]Hist, len(schema.Hists)),
	}
}

// NewShard returns a standalone shard for schema, not registered with any
// Set. Components own one by default so instrumentation can be unconditional
// (no nil checks on the hot path); attach a registered shard to collect.
func NewShard(schema *Schema) *Shard { return newShard(schema) }

// Inc adds 1 to counter c.
func (sh *Shard) Inc(c Counter) { sh.c[c]++ }

// Add adds n to counter c.
func (sh *Shard) Add(c Counter, n uint64) { sh.c[c] += n }

// Observe records v in histogram h.
func (sh *Shard) Observe(h HistID, v uint64) { sh.h[h].Observe(v) }

// Counter reads counter c (owner-side inspection; not synchronized).
func (sh *Shard) Counter(c Counter) uint64 { return sh.c[c] }

// Set owns the shards of one component instance. Shard registration takes a
// lock (it happens once per worker, at pool startup); reading via Snapshot
// must only happen at quiescence, when no shard owner is mid-increment.
type Set struct {
	schema *Schema
	mu     sync.Mutex
	shards []*Shard
}

// NewSet creates an empty Set for schema.
func NewSet(schema *Schema) *Set { return &Set{schema: schema} }

// NewShard allocates and registers a new shard. Call once per worker at
// startup, never on the per-shot path.
func (s *Set) NewShard() *Shard {
	sh := newShard(s.schema)
	s.mu.Lock()
	s.shards = append(s.shards, sh)
	s.mu.Unlock()
	return sh
}

// Snapshot merges all registered shards into an immutable Snapshot. The
// caller must guarantee quiescence: every shard owner has finished (e.g. the
// worker pool joined). Shards are not reset; snapshots are cumulative.
func (s *Set) Snapshot() *Snapshot {
	snap := NewSnapshot(s.schema)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		for i, v := range sh.c {
			snap.Counters[i] += v
		}
		for i := range sh.h {
			snap.Hists[i].merge(&sh.h[i])
		}
	}
	return snap
}

// Snapshot is a merged, owner-free view of a component's instruments,
// suitable for JSON manifests and Prometheus exposition. Compile-time
// quantities (graph sizes, fault-site counts) are recorded by writing
// directly into a fresh snapshot with SetCounter.
type Snapshot struct {
	schema   *Schema
	Counters []uint64
	Hists    []Hist
}

// NewSnapshot returns a zeroed snapshot for schema.
func NewSnapshot(schema *Schema) *Snapshot {
	return &Snapshot{
		schema:   schema,
		Counters: make([]uint64, len(schema.Counters)),
		Hists:    make([]Hist, len(schema.Hists)),
	}
}

// Counter returns the value of the named counter, or 0 if unknown.
func (s *Snapshot) Counter(name string) uint64 {
	if i := s.schema.counterIndex(name); i >= 0 {
		return s.Counters[i]
	}
	return 0
}

// SetCounter stores v into the named counter. It panics on an unknown name:
// that is a schema/instrumentation mismatch, a programmer error.
func (s *Snapshot) SetCounter(name string, v uint64) {
	i := s.schema.counterIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("telemetry: unknown counter %q in component %q", name, s.schema.Component))
	}
	s.Counters[i] = v
}

// Hist returns the named histogram, or nil if unknown.
func (s *Snapshot) Hist(name string) *Hist {
	if i := s.schema.histIndex(name); i >= 0 {
		return &s.Hists[i]
	}
	return nil
}

// Merge adds o into s. The two snapshots must share a schema shape (same
// counter and histogram names in the same order).
func (s *Snapshot) Merge(o *Snapshot) error {
	if len(o.Counters) != len(s.Counters) || len(o.Hists) != len(s.Hists) {
		return fmt.Errorf("telemetry: merging mismatched snapshots (%q: %d/%d instruments, %q: %d/%d)",
			s.schema.Component, len(s.Counters), len(s.Hists),
			o.schema.Component, len(o.Counters), len(o.Hists))
	}
	for i, v := range o.Counters {
		s.Counters[i] += v
	}
	for i := range o.Hists {
		s.Hists[i].merge(&o.Hists[i])
	}
	return nil
}

// Check verifies internal consistency of the snapshot (histogram bucket
// totals match their counts). Used by manifest validation.
func (s *Snapshot) Check() error {
	for i := range s.Hists {
		if err := s.Hists[i].check(s.schema.Hists[i]); err != nil {
			return err
		}
	}
	return nil
}
