package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// ManifestSchemaVersion is bumped whenever the manifest shape changes
// incompatibly; consumers should reject versions they do not know.
const ManifestSchemaVersion = 1

// Provenance records where and how a run was produced, so result files stay
// attributable across machines and revisions.
type Provenance struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Module      string `json:"module,omitempty"`
	GitRevision string `json:"git_revision,omitempty"`
	GitModified bool   `json:"git_modified,omitempty"`
}

// NewProvenance captures the current process's provenance. Git revision and
// dirty state come from debug.ReadBuildInfo VCS stamps, which are present in
// `go build` binaries inside a git checkout and absent under `go test`; the
// fields are omitted when unavailable.
func NewProvenance() Provenance {
	p := Provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		p.Module = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRevision = s.Value
			case "vcs.modified":
				p.GitModified = s.Value == "true"
			}
		}
	}
	return p
}

// Point is one sweep point: its coordinates (distance, physical error rate,
// engine, ...), the estimator's result, and per-component metric snapshots.
type Point struct {
	Labels  map[string]any       `json:"labels"`
	Result  map[string]any       `json:"result,omitempty"`
	Metrics map[string]*Snapshot `json:"metrics,omitempty"`
	// Attribution and Detectors are the optional diagnostics sections
	// (internal/diag): the -diag error-budget attribution table and the
	// -dem-calib per-detector calibration report. They are additive —
	// schema version 1 consumers that predate them ignore the keys — and
	// opaque to the telemetry layer, which only round-trips them as JSON.
	Attribution any `json:"attribution,omitempty"`
	Detectors   any `json:"detectors,omitempty"`
}

// Manifest is the structured record of one CLI run: provenance, config,
// wall-clock stage spans, and per-point results with merged metrics. It is
// the `-metrics <file>` output of both CLIs and the `-json` output of noise
// sweeps.
type Manifest struct {
	SchemaVersion int            `json:"schema_version"`
	Tool          string         `json:"tool"`
	Args          []string       `json:"args,omitempty"`
	Started       time.Time      `json:"started"`
	WallSeconds   float64        `json:"wall_seconds"`
	Provenance    Provenance     `json:"provenance"`
	Config        map[string]any `json:"config,omitempty"`
	Spans         []Span         `json:"spans,omitempty"`
	Points        []Point        `json:"points,omitempty"`
}

// NewManifest starts a manifest for tool, stamping start time, command-line
// arguments, and provenance.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Tool:          tool,
		Args:          os.Args[1:],
		//tiscc:nondeterministic run provenance: the start stamp describes the run, it never feeds records or compiled artifacts
		Started:    time.Now().UTC(),
		Provenance: NewProvenance(),
	}
}

// AddPoint appends a sweep point.
func (m *Manifest) AddPoint(p Point) { m.Points = append(m.Points, p) }

// Finish closes the manifest against a span collector: total wall time and
// the completed stage spans.
func (m *Manifest) Finish(sp *Spans) {
	m.WallSeconds = sp.WallSeconds()
	m.Spans = sp.Spans()
}

// Write emits the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path (0644).
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest parses a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("telemetry: parsing manifest %s: %w", path, err)
	}
	return &m, nil
}

// Validate performs the manifest schema check: required fields present,
// spans finite and inside the run's wall time, and every metric snapshot
// internally consistent. CI runs this (via a Go test) against the manifest
// produced by a real decoded sweep.
func (m *Manifest) Validate() error {
	if m.SchemaVersion != ManifestSchemaVersion {
		return fmt.Errorf("telemetry: manifest schema version %d, want %d", m.SchemaVersion, ManifestSchemaVersion)
	}
	if m.Tool == "" {
		return fmt.Errorf("telemetry: manifest missing tool name")
	}
	if m.Started.IsZero() {
		return fmt.Errorf("telemetry: manifest missing start time")
	}
	if m.WallSeconds < 0 || math.IsNaN(m.WallSeconds) || math.IsInf(m.WallSeconds, 0) {
		return fmt.Errorf("telemetry: manifest wall_seconds %v invalid", m.WallSeconds)
	}
	p := m.Provenance
	if p.GoVersion == "" || p.GOOS == "" || p.GOARCH == "" {
		return fmt.Errorf("telemetry: manifest provenance incomplete: %+v", p)
	}
	if p.GOMAXPROCS < 1 || p.NumCPU < 1 {
		return fmt.Errorf("telemetry: manifest provenance has impossible CPU counts: %+v", p)
	}
	wallMS := m.WallSeconds * 1e3
	for _, s := range m.Spans {
		if s.Name == "" {
			return fmt.Errorf("telemetry: span with empty name")
		}
		if s.MS < 0 || s.StartMS < 0 || math.IsNaN(s.MS) || math.IsNaN(s.StartMS) {
			return fmt.Errorf("telemetry: span %q has invalid timing start=%v ms=%v", s.Name, s.StartMS, s.MS)
		}
		// Allow 1ms of slack for clock rounding at the edges.
		if s.StartMS+s.MS > wallMS+1 {
			return fmt.Errorf("telemetry: span %q (start=%vms, %vms) extends past wall time %vms",
				s.Name, s.StartMS, s.MS, wallMS)
		}
	}
	for i, pt := range m.Points {
		if len(pt.Labels) == 0 {
			return fmt.Errorf("telemetry: point %d has no labels", i)
		}
		// Sorted component walk: with several bad components, which one the
		// error names must not depend on map iteration order.
		comps := make([]string, 0, len(pt.Metrics))
		for comp := range pt.Metrics {
			comps = append(comps, comp)
		}
		sort.Strings(comps)
		for _, comp := range comps {
			snap := pt.Metrics[comp]
			if snap == nil {
				return fmt.Errorf("telemetry: point %d metrics[%q] is null", i, comp)
			}
			if err := snap.Check(); err != nil {
				return fmt.Errorf("telemetry: point %d metrics[%q]: %w", i, comp, err)
			}
		}
	}
	return nil
}

// WritePrometheusFile renders the manifest's aggregate metrics and stage
// spans in the Prometheus text exposition format under the given namespace.
// It is the shared implementation behind both CLIs' -prom flag.
func (m *Manifest) WritePrometheusFile(path, namespace string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePrometheus(f, namespace, m.MergedMetrics()); err != nil {
		f.Close()
		return err
	}
	if err := WriteSpansPrometheus(f, namespace, m.Spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteOutputs writes the manifest to the run's requested destinations — the
// JSON manifest to jsonPath and the Prometheus exposition (namespace
// "tiscc") to promPath, each skipped when empty — and logs one "wrote ..."
// line per file to log. It is the shared tail of both CLIs' -metrics / -prom
// handling.
func (m *Manifest) WriteOutputs(jsonPath, promPath string, log io.Writer) error {
	if jsonPath != "" {
		if err := m.WriteFile(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote run manifest to %s\n", jsonPath)
	}
	if promPath != "" {
		if err := m.WritePrometheusFile(promPath, "tiscc"); err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote Prometheus metrics to %s\n", promPath)
	}
	return nil
}

// SpanSecondsTotal sums the durations of all spans, in seconds. A healthy
// CLI run accounts for ≥90% of its wall time in top-level stage spans.
func (m *Manifest) SpanSecondsTotal() float64 {
	var ms float64
	for _, s := range m.Spans {
		ms += s.MS
	}
	return ms / 1e3
}

// MergedMetrics merges the per-point snapshots of every component across all
// points, keyed by component name — the aggregate view Prometheus exposition
// uses.
func (m *Manifest) MergedMetrics() map[string]*Snapshot {
	out := make(map[string]*Snapshot)
	for _, pt := range m.Points {
		//tiscc:nondeterministic per-component accumulation: keys are independent and each component's Merge order follows the ordered Points slice
		for comp, snap := range pt.Metrics {
			if snap == nil {
				continue
			}
			if acc, ok := out[comp]; ok {
				// Mismatched shapes only arise from hand-edited manifests;
				// skip rather than corrupt the aggregate.
				_ = acc.Merge(snap)
			} else {
				cp := NewSnapshot(snap.schema)
				_ = cp.Merge(snap)
				out[comp] = cp
			}
		}
	}
	return out
}
