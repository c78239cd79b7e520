// Command perfbench is the repository's end-to-end benchmark: the time from
// an estimate specification to a decoded logical error rate, with a traced
// mode that breaks it down by pipeline layer. See README.md.
//
//	go run . --workload memory-d9-dense --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat every
// figure with its unit, the run's provenance and any failed check. The run
// record, with the spans of a traced run, is written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"tiscc/internal/serve"
	"tiscc/internal/telemetry"
)

// workload is one benchmark workload: an untraced run for the end-to-end
// metrics and a traced run for the per-layer ones.
type workload interface {
	run(name string, seed int64, secs float64) (*runResult, error)
	trace(name string, seed int64, secs float64, tr *tracer) (*runResult, error)
}

const dep = serve.ModelDepolarizing

var workloads = map[string]workload{
	// Decode-bound: DEM compile is nearly all of set-up and union-find
	// decoding nearly all of the estimate.
	"memory-d9-dense": estimateWorkload{spec: memorySpec(9, dep, 1e-3), shots: 640, setups: 5},
	// Sampler-bound: raw readout, no DEM compile and no decoder.
	"memory-d13-raw": estimateWorkload{spec: spec{d: 13, rounds: 13, model: dep, p: 1e-3}, shots: 4096, setups: 9},
	// Sparse syndromes: most shots fire no detector.
	"surgery-d5-sparse": estimateWorkload{spec: surgerySpec(5, dep, 5e-5), shots: 8192, setups: 7},
	// The estimator service: compile misses beside cache hits.
	"serve-mixed": serveWorkload{
		clients: [][]spec{{
			memorySpec(3, dep, 1e-3), memorySpec(5, dep, 1e-3), surgerySpec(3, dep, 1e-3), memorySpec(5, dep, 2e-3),
			memorySpec(3, dep, 2e-3), surgerySpec(3, dep, 2e-3), memorySpec(5, serve.ModelTable5, 0),
		}, {
			memorySpec(3, dep, 3e-3), memorySpec(5, dep, 3e-3), surgerySpec(3, dep, 3e-3), memorySpec(5, dep, 5e-3),
			memorySpec(3, dep, 5e-3), surgerySpec(3, dep, 5e-3), surgerySpec(3, serve.ModelTable5, 0),
		}},
		shots: 64, setups: 51, missEvery: 12, warmRounds: 4, directRep: 15,
	},
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"time_to_result_s", "s", "lower"},
	{"shots_per_s", "1/s", "higher"},
	{"hit_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// run reports 0.
var perLayer = []metricDef{
	{"verify.experiment_s", "s", "lower"},
	{"verify.experiment_share", "frac", "lower"},
	{"orqcs.instructions", "count", "lower"},
	{"decoder.extract_s", "s", "lower"},
	{"decoder.extract_share", "frac", "lower"},
	{"noise.compile_s", "s", "lower"},
	{"noise.compile_share", "frac", "lower"},
	{"noise.fault_sites", "count", "lower"},
	{"decoder.dem_compile_s", "s", "lower"},
	{"decoder.dem_compile_share", "frac", "lower"},
	{"decoder.edges", "count", "lower"},
	{"decoder.undecomposed", "count", "lower"},
	{"frame.setup_s", "s", "lower"},
	{"frame.setup_share", "frac", "lower"},
	{"setup.residual_share", "frac", "lower"},
	{"frame.sample_us_per_shot", "us", "lower"},
	{"frame.sample_share", "frac", "lower"},
	{"frame.handoff_us_per_shot", "us", "lower"},
	{"frame.handoff_share", "frac", "lower"},
	{"expr.readout_us_per_shot", "us", "lower"},
	{"expr.readout_share", "frac", "lower"},
	{"decoder.syndrome_us_per_shot", "us", "lower"},
	{"decoder.syndrome_share", "frac", "lower"},
	{"decoder.decode_us_per_shot", "us", "lower"},
	{"decoder.decode_share", "frac", "lower"},
	{"decoder.grow_rounds_per_shot", "count", "lower"},
	{"decoder.defects_per_shot", "count", "lower"},
	{"decoder.empty_syndrome_frac", "frac", "higher"},
	{"frame.allocs_per_shot", "count", "lower"},
	{"decoder.allocs_per_shot", "count", "lower"},
	{"decoder.raw_fallbacks", "count", "lower"},
	{"noise.estimate_residual_share", "frac", "lower"},
	{"noise.parallel_efficiency", "frac", "higher"},
	{"trace_overhead", "frac", "lower"},
	{"serve.compile_artifact_s", "s", "lower"},
	{"serve.compile_artifact_share", "frac", "lower"},
	{"wire.encode_bundle_ms", "ms", "lower"},
	{"wire.encode_bundle_share", "frac", "lower"},
	{"wire.decode_bundle_ms", "ms", "lower"},
	{"wire.decode_bundle_share", "frac", "lower"},
	{"wire.bundle_bytes", "bytes", "lower"},
	{"serve.misses", "count", "lower"},
	{"serve.hits", "count", "higher"},
	{"serve.request_overhead_ms", "ms", "lower"},
}

// note is a figure printed with the run but not part of its JSON metrics.
type note struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult collects one run's figures and output checks. Checks may come
// from several goroutines.
type runResult struct {
	mu                sync.Mutex
	attempted, failed int
	failures          []string
	metrics           map[string]float64 // end-to-end
	layers            map[string]float64 // per-layer
	notes             []note
	props             map[string]float64 // workload properties
}

func newRunResult() *runResult {
	return &runResult{metrics: map[string]float64{}, layers: map[string]float64{}, props: map[string]float64{}}
}

// check counts one output check; a false ok is a failure described by
// format and args.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checkErr counts a check that err reports as failed when non-nil.
func (r *runResult) checkErr(err error) {
	if err != nil {
		r.check(false, "%v", err)
	} else {
		r.check(true, "")
	}
}

func (r *runResult) metric(name string, v float64) { r.metrics[name] = v }
func (r *runResult) layer(name string, v float64)  { r.layers[name] = v }
func (r *runResult) note(name string, v float64, unit string) {
	r.notes = append(r.notes, note{name, v, unit})
}

// provenance records where a run was made.
type provenance struct {
	telemetry.Provenance
	NProc    int    `json:"nproc"`
	CPUModel string `json:"cpu_model"`
}

func newProvenance() provenance {
	p := provenance{Provenance: telemetry.NewProvenance(), NProc: runtime.NumCPU(), CPUModel: cpuModel()}
	if p.GitRevision == "" {
		p.GitRevision = "unknown"
	}
	return p
}

// runRecord is the file written at the end of a run.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Properties map[string]float64 `json:"properties"`
	Metrics    map[string]float64 `json:"metrics"`
	Notes      []note             `json:"notes,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the run's figures and returns its summary. With trace
// off every end-to-end metric must be present; layers a traced workload
// does not run report 0.
func report(w io.Writer, r *runResult, traced bool) (summary, error) {
	defs, values := endToEnd, r.metrics
	if traced {
		defs, values = perLayer, r.layers
	}
	s := summary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			return s, fmt.Errorf("metric %s was not measured", d.name)
		}
		s.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note   %-32s %14.6g %s\n", n.Name, n.Value, n.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "note   %-32s %14.6g frac (%d of %d checks)\n", "failed_frac", frac, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL   %s\n", f)
	}
	return s, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams, returning the exit code: 0
// when every check passed, 1 when one failed or the run could not finish,
// 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 10, "seconds of timed requests")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "runs"), "directory for run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs < 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		return 2
	}
	prov := newProvenance()
	traced := *trace == 1
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *secs, *trace)

	var tr *tracer
	var r *runResult
	var err error
	if traced {
		tr = newTracer()
		r, err = w.trace(*name, *seed, *secs, tr)
	} else {
		r, err = w.run(*name, *seed, *secs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	props, _ := json.Marshal(r.props)
	fmt.Fprintf(stdout, "properties %s\n", props)
	s, err := report(stdout, r, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rec := runRecord{Workload: *name, Seed: *seed, Trace: traced, Provenance: prov, Properties: r.props,
		Metrics: r.metrics, Notes: r.notes, Failures: r.failures, Spans: tr.all()}
	if traced {
		rec.Metrics = r.layers
	}
	if err := writeRecord(*out, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: run record: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(s)
	fmt.Fprintf(stdout, "%s\n", line)
	if !s.Correct {
		return 1
	}
	return 0
}

// writeRecord writes rec as <dir>/<workload>-seed<seed>-trace<0|1>.json.
func writeRecord(dir string, rec runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if rec.Trace {
		t = 1
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, t)), data, 0o644)
}
