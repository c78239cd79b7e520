package experiment

import (
	"fmt"
	"io"
	"time"

	"tiscc/internal/diag"
	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/telemetry"
)

// RunOptions configures one estimation point of Run.
type RunOptions struct {
	Shots   int
	Seed    int64
	Workers int // ≤ 0 selects GOMAXPROCS; never changes the result
	// Diag collects per-channel error-budget attribution; DemCalib collects
	// per-detector observed-vs-DEM calibration residuals (decoded runs).
	Diag, DemCalib bool
	// Progress, when non-nil, receives the point's NDJSON progress stream,
	// its events labelled Label.
	Progress io.Writer
	Label    string
	// Spans, when non-nil, records the "estimate" span.
	Spans *telemetry.Spans
}

// Point is one finished estimation point.
type Point struct {
	Result    noise.Result
	Telemetry telemetry.Point // the point's manifest entry
	Tables    string          // the requested diagnostics report tables, ready to print
}

// Labels returns the manifest coordinates of the compiled experiment:
// workload, distance, rounds, model (plus p for the depolarizing preset)
// and whether shots are decoded.
func (c *Compiled) Labels() map[string]any {
	labels := map[string]any{
		"workload": c.Spec.Workload, "d": c.Spec.Distance, "rounds": c.Spec.NumRounds(),
		"model": c.Spec.Model.Name, "decoded": c.Graph != nil,
	}
	if p, ok := c.Spec.depolarizingP(); ok {
		labels["p"] = p
	}
	return labels
}

// Run is the shared point runner behind tiscc-bench's noise sweeps and
// orqcs -memory/-surgery: it estimates the compiled experiment's logical
// error rate on the Pauli-frame sampler, wiring in the diagnostics
// collector and progress stream the options ask for, and assembles the
// point's manifest entry. Diagnostics read the firings each sampled batch
// already carries (and, decoded, the detector words the decoder built from
// them) and touch no RNG, so the result is bit-identical with and without
// them.
func (c *Compiled) Run(o RunOptions) (*Point, error) {
	sim, err := frame.New(c.Prog, c.Sched)
	if err != nil {
		return nil, err
	}
	opt := noise.Options{Shots: o.Shots, Seed: o.Seed, Workers: o.Workers, Sampler: sim}
	var coll *diag.Collector
	if o.Diag || o.DemCalib {
		// Detector statistics come from the detector words a decoder
		// builds and the graph's effect table, so only a decoded run gets
		// them; DemCalib on a raw run is then an error instead of a report
		// of silent detectors.
		coll = diag.NewCollector(c.Sched, c.Graph)
		opt.Observer = coll
	}
	var pw *diag.ProgressWriter
	if o.Progress != nil {
		pw = diag.NewProgressWriter(o.Progress, o.Label, o.Shots)
		opt.Progress = pw.Batch
	}
	endEst := o.Spans.Start("estimate")
	//tiscc:nondeterministic wall_seconds is run telemetry: it feeds the manifest, never records or results
	t0 := time.Now()
	res, err := c.Estimate(opt)
	//tiscc:nondeterministic wall_seconds is run telemetry: it feeds the manifest, never records or results
	wall := time.Since(t0).Seconds()
	endEst()
	if err != nil {
		return nil, err
	}
	if pw != nil {
		pw.Done(res)
		if err := pw.Err(); err != nil {
			return nil, fmt.Errorf("progress stream: %w", err)
		}
	}
	metrics := map[string]*telemetry.Snapshot{
		"program": c.Prog.Metrics(),
		"noise":   c.Sched.Metrics(),
		"sampler": sim.Metrics(),
	}
	if c.Graph != nil {
		metrics["decoder"] = c.Graph.Metrics()
	}
	pt := &Point{Result: res, Telemetry: telemetry.Point{
		Labels: c.Labels(),
		Result: map[string]any{
			"shots": res.Shots, "requested": res.Requested, "errors": res.Errors,
			"p_l": res.Rate, "stderr": res.StdErr,
			"wilson_low": res.WilsonLow, "wilson_high": res.WilsonHigh,
			"half_width": res.HalfWidth, "early_stop_batch": res.EarlyStopBatch,
			"raw_fallbacks": res.RawFallbacks, "wall_seconds": wall,
		},
		Metrics: metrics,
	}}
	if coll != nil {
		att := coll.Attribution()
		pt.Telemetry.Attribution = att
		metrics["error_budget"] = att.Snapshot()
		if o.Diag {
			pt.Tables += att.Table()
		}
		if o.DemCalib {
			dr, err := coll.DetectorReport()
			if err != nil {
				return nil, err
			}
			pt.Telemetry.Detectors = dr
			pt.Tables += dr.Table()
		}
	}
	return pt, nil
}
