package telemetry

import "sync"

// Locked is a mutex-guarded instrument set for long-running concurrent
// components — HTTP servers, caches — where the Set/Shard quiescence
// contract of the simulation hot path cannot hold: increments arrive from
// arbitrary request goroutines and a scrape may read at any moment. Every
// operation takes one mutex; that cost is fine off the shot loop, which
// keeps using Shard.
type Locked struct {
	mu sync.Mutex
	sh *Shard
	sc *Schema
}

// NewLocked returns a zeroed locked instrument set for schema.
func NewLocked(schema *Schema) *Locked {
	return &Locked{sh: newShard(schema), sc: schema}
}

// Inc adds 1 to counter c.
func (l *Locked) Inc(c Counter) {
	l.mu.Lock()
	l.sh.Inc(c)
	l.mu.Unlock()
}

// Add adds n to counter c.
func (l *Locked) Add(c Counter, n uint64) {
	l.mu.Lock()
	l.sh.Add(c, n)
	l.mu.Unlock()
}

// Observe records v in histogram h.
func (l *Locked) Observe(h HistID, v uint64) {
	l.mu.Lock()
	l.sh.Observe(h, v)
	l.mu.Unlock()
}

// Counter reads counter c.
func (l *Locked) Counter(c Counter) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sh.Counter(c)
}

// Snapshot copies the current values into an immutable Snapshot. Unlike
// Set.Snapshot it is safe to call concurrently with increments.
func (l *Locked) Snapshot() *Snapshot {
	snap := NewSnapshot(l.sc)
	l.mu.Lock()
	defer l.mu.Unlock()
	copy(snap.Counters, l.sh.c)
	copy(snap.Hists, l.sh.h)
	return snap
}
