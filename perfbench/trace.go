package main

import (
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Parent is the id
// of the span that caused it (0 for the run itself). BusyMS is set on
// aggregate spans, which stand for many short calls of one layer inside
// their interval: it is the summed duration of those calls.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	BusyMS  float64 `json:"busy_ms,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Millisecond)
}

// start opens a span under parent and returns its id and the function that
// closes it.
func (t *tracer) start(parent int, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartMS: t.ms(begin)})
	t.mu.Unlock()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].EndMS = t.ms(end)
		t.mu.Unlock()
	}
}

// aggregate records one span standing for many calls of a layer made
// between begin and now, busy for the given total.
func (t *tracer) aggregate(parent int, name string, begin time.Time, busy time.Duration) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartMS: t.ms(begin), EndMS: t.ms(end), BusyMS: float64(busy) / float64(time.Millisecond)})
	t.mu.Unlock()
}

// total sums the time spent in every span named name, in seconds: the busy
// time of aggregate spans, the interval of the others.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := 0.0
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if s.BusyMS > 0 {
			ms += s.BusyMS
		} else {
			ms += s.EndMS - s.StartMS
		}
	}
	return ms / 1000
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
