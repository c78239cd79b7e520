package diag

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"tiscc/internal/noise"
)

// ProgressSchema versions the NDJSON progress event wire format. Consumers
// should skip lines whose schema tag they do not recognize.
const ProgressSchema = "tiscc.progress/v1"

// ProgressEvent is one line of the -progress NDJSON stream. Every event
// carries the schema tag and the sweep-point label; "start" opens a point,
// "batch" reports the estimator's in-order fold at each batch boundary, and
// "done" closes the point with the final result.
type ProgressEvent struct {
	Schema string `json:"schema"`
	Event  string `json:"event"` // "start", "batch" or "done"
	Label  string `json:"label,omitempty"`

	Done   int `json:"done"`
	Total  int `json:"total"`
	Errors int `json:"errors"`

	PL        float64 `json:"p_l"`
	HalfWidth float64 `json:"ci_half_width"` // 95% Wilson half-width

	ShotsPerSec    float64 `json:"shots_per_sec"`
	ETASeconds     float64 `json:"eta_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	EarlyStopped bool `json:"early_stopped"`
}

// ProgressWriter streams one estimation run's progress as NDJSON. Create one
// per sweep point (several points may share the underlying writer — the
// label tells the streams apart), wire Batch as noise.Options.Progress, and
// call Done with the final result. Events are whole lines written under a
// mutex, so concurrent points interleave without tearing.
type ProgressWriter struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	total int
	start time.Time
	err   error
}

// NewProgressWriter opens a progress stream for one estimation run of total
// requested shots and emits its "start" event.
func NewProgressWriter(w io.Writer, label string, total int) *ProgressWriter {
	p := &ProgressWriter{w: w, label: label, total: total, start: time.Now()}
	p.emit(ProgressEvent{Event: "start", Total: total})
	return p
}

// Batch reports one batch boundary of the estimator's in-order fold; its
// signature matches noise.Options.Progress.
func (p *ProgressWriter) Batch(done, errs int, stopped bool) {
	ev := ProgressEvent{Event: "batch", Done: done, Total: p.total,
		Errors: errs, EarlyStopped: stopped}
	if done > 0 {
		ev.PL = float64(errs) / float64(done)
		lo, hi := noise.Wilson(errs, done)
		ev.HalfWidth = (hi - lo) / 2
	}
	p.emit(ev)
}

// Done closes the stream for this run with the estimator's final result.
func (p *ProgressWriter) Done(res noise.Result) {
	p.emit(ProgressEvent{Event: "done", Done: res.Shots, Total: res.Requested,
		Errors: res.Errors, PL: res.Rate, HalfWidth: res.HalfWidth,
		EarlyStopped: res.EarlyStopBatch > 0})
}

// Err reports the first write or encode error, if any.
func (p *ProgressWriter) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *ProgressWriter) emit(ev ProgressEvent) {
	ev.Schema = ProgressSchema
	ev.Label = p.label
	p.mu.Lock()
	defer p.mu.Unlock()
	ev.ElapsedSeconds = time.Since(p.start).Seconds()
	if ev.ElapsedSeconds > 0 && ev.Done > 0 {
		ev.ShotsPerSec = float64(ev.Done) / ev.ElapsedSeconds
		if !ev.EarlyStopped && ev.Event != "done" {
			ev.ETASeconds = float64(ev.Total-ev.Done) / ev.ShotsPerSec
		}
	}
	line, err := json.Marshal(ev)
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	line = append(line, '\n')
	if _, err := p.w.Write(line); err != nil && p.err == nil {
		p.err = err
	}
}

// ProgressFlag is the CLIs' -progress destination: a boolean-style flag
// (bare -progress streams to stderr) that also accepts -progress=FILE.
type ProgressFlag struct {
	Dest string // "" disabled, "stderr", or a file path
}

func (p *ProgressFlag) String() string { return p.Dest }

// IsBoolFlag lets the flag package accept a bare -progress.
func (p *ProgressFlag) IsBoolFlag() bool { return true }

// Set implements flag.Value.
func (p *ProgressFlag) Set(v string) error {
	switch v {
	case "", "true":
		p.Dest = "stderr"
	case "false", "0":
		p.Dest = ""
	default:
		p.Dest = v
	}
	return nil
}

// Open returns the progress destination's writer (nil when the stream is
// disabled) and the function that closes it once the run is done.
func (p *ProgressFlag) Open() (io.Writer, func() error, error) {
	switch p.Dest {
	case "":
		return nil, func() error { return nil }, nil
	case "stderr":
		return os.Stderr, func() error { return nil }, nil
	}
	f, err := os.Create(p.Dest)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
