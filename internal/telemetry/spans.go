package telemetry

import (
	"sync"
	"time"
)

// Span is one completed wall-clock stage: a name, a start offset from the
// collector's origin, and a duration, both in milliseconds.
type Span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	MS      float64 `json:"ms"`
}

// Spans collects wall-clock stage spans. Start returns a closure that ends
// the span; spans may nest or overlap freely (validation only requires them
// to lie within the collector's total wall time). Safe for concurrent use.
type Spans struct {
	t0 time.Time
	mu sync.Mutex
	s  []Span
}

// NewSpans starts a collector; its origin is the moment of the call.
//
//tiscc:nondeterministic spans ARE wall-clock telemetry by design; they feed manifests, never records or artifacts
func NewSpans() *Spans { return &Spans{t0: time.Now()} }

// Start begins a span and returns the function that completes it. On a nil
// collector it records nothing, so pipeline stages can take an optional
// *Spans.
//
//tiscc:nondeterministic spans ARE wall-clock telemetry by design; they feed manifests, never records or artifacts
func (sp *Spans) Start(name string) func() {
	if sp == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		sp.mu.Lock()
		sp.s = append(sp.s, Span{
			Name:    name,
			StartMS: float64(start.Sub(sp.t0)) / float64(time.Millisecond),
			MS:      float64(end.Sub(start)) / float64(time.Millisecond),
		})
		sp.mu.Unlock()
	}
}

// Spans returns a copy of the completed spans in completion order.
func (sp *Spans) Spans() []Span {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]Span, len(sp.s))
	copy(out, sp.s)
	return out
}

// WallSeconds is the elapsed wall-clock time since the collector started.
//
//tiscc:nondeterministic spans ARE wall-clock telemetry by design; they feed manifests, never records or artifacts
func (sp *Spans) WallSeconds() float64 {
	return time.Since(sp.t0).Seconds()
}
