package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"tiscc/internal/cpuid"
	"tiscc/internal/diag"
	"tiscc/internal/experiment"
	"tiscc/internal/noise"
	"tiscc/internal/telemetry"
)

// Request bounds: validation rejects anything outside these up front, so no
// request-reachable input can hit an internal panic (grid sizes, layout
// parameters) or an unbounded compile.
const (
	MaxDistance = 25
	MaxRounds   = 1000
	MaxShots    = 10_000_000
	MaxWorkers  = 1024
	maxBodySize = 1 << 20
)

// EstimateSchema versions the final-result line of /v1/estimate responses.
const EstimateSchema = "tiscc.estimate/v1"

// EstimateRequest is the JSON body of POST /v1/estimate. Unknown fields are
// rejected, so typos fail loudly instead of silently running defaults.
type EstimateRequest struct {
	// Workload selects the circuit: "memory" (default) or "surgery".
	Workload string `json:"workload,omitempty"`
	// Distance is the surface-code distance (2..MaxDistance).
	Distance int `json:"distance"`
	// Rounds is the syndrome-round count; 0 (default) means Distance.
	Rounds int `json:"rounds,omitempty"`
	// Model is "depolarizing" (default; swept by P) or "table5".
	Model string `json:"model,omitempty"`
	// P is the physical error probability of the depolarizing model.
	P float64 `json:"p,omitempty"`
	// Shots caps the Monte-Carlo run (default 1000).
	Shots int `json:"shots,omitempty"`
	// Seed is the base seed; shot i runs with orqcs.ShotSeed(Seed, i), so
	// the result is bit-identical for any worker count or batch placement.
	Seed int64 `json:"seed"`
	// Workers sizes the shot pool (0 = all cores). Does not affect results.
	Workers int `json:"workers,omitempty"`
	// Progress streams NDJSON batch events (tiscc.progress/v1) before the
	// final result line. Progress events carry wall-clock rates, so only the
	// non-progress response body is byte-for-byte deterministic.
	Progress bool `json:"progress,omitempty"`
}

// validate normalizes defaults and returns a client-facing error for the
// first violated bound.
func (q *EstimateRequest) validate() error {
	if q.Workload == "" {
		q.Workload = WorkloadMemory
	}
	if q.Model == "" {
		q.Model = ModelDepolarizing
	}
	if q.Distance > MaxDistance {
		return fmt.Errorf("distance must be ≤ %d, got %d", MaxDistance, q.Distance)
	}
	if q.Rounds > MaxRounds {
		return fmt.Errorf("rounds must be ≤ %d, got %d", MaxRounds, q.Rounds)
	}
	if math.IsNaN(q.P) || q.P < 0 || q.P > 1 {
		return fmt.Errorf("p must be a probability in [0, 1], got %v", q.P)
	}
	spec, err := Key{Workload: q.Workload, Distance: q.Distance, Rounds: q.Rounds, Model: q.Model, P: q.P}.Spec()
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if q.Shots == 0 {
		q.Shots = 1000
	}
	if q.Shots < 1 || q.Shots > MaxShots {
		return fmt.Errorf("shots must be in [1, %d], got %d", MaxShots, q.Shots)
	}
	if q.Workers < 0 || q.Workers > MaxWorkers {
		return fmt.Errorf("workers must be in [0, %d] (0 = all cores), got %d", MaxWorkers, q.Workers)
	}
	return nil
}

// key maps a validated request onto its artifact cache key.
func (q *EstimateRequest) key() Key {
	return Key{Workload: q.Workload, Distance: q.Distance, Rounds: q.Rounds,
		Model: q.Model, P: q.P}.Normalize()
}

// ArtifactInfo reports the deterministic wire accounting of one cached
// compile: sizes and checksum are pure functions of the request key, so
// they are safe to include in byte-identical responses.
type ArtifactInfo struct {
	BundleBytes   int    `json:"bundle_bytes"`
	BundleCRC32   string `json:"bundle_crc32"`
	ProgramBytes  int    `json:"program_bytes"`
	ScheduleBytes int    `json:"schedule_bytes"`
	GraphBytes    int    `json:"graph_bytes"`
	FormatVersion uint16 `json:"format_version"`
	Qubits        int    `json:"qubits"`
	Instructions  int    `json:"instructions"`
	FaultSites    int    `json:"fault_sites"`
	Detectors     int    `json:"detectors"`
	Edges         int    `json:"edges"`
	// Degraded-DEM report: hyper mechanisms dropped from the edge weights,
	// observable flips no detector sees, and the graphlike circuit distance
	// (decoder.Graph.Distance; −1 when no logical error is reachable).
	Undecomposed int `json:"undecomposed_mechanisms"`
	Undetectable int `json:"undetectable_mechanisms"`
	Distance     int `json:"distance"`
}

// EstimateResult is the result section of the final response line.
type EstimateResult struct {
	Shots          int     `json:"shots"`
	Requested      int     `json:"requested"`
	Errors         int     `json:"errors"`
	PL             float64 `json:"p_l"`
	StdErr         float64 `json:"stderr"`
	WilsonLow      float64 `json:"wilson_low"`
	WilsonHigh     float64 `json:"wilson_high"`
	HalfWidth      float64 `json:"ci_half_width"`
	EarlyStopBatch int     `json:"early_stop_batch"`
	Reference      bool    `json:"reference"`
	// RawFallbacks counts the shots whose decode fell back to the raw
	// readout (noise.Result.RawFallbacks).
	RawFallbacks int `json:"raw_fallbacks"`
}

// EstimateResponse is the final line of a /v1/estimate response: the result,
// the echoed configuration, and the artifact manifest. Every field is a
// deterministic function of the request, so identical requests — cached or
// not, one worker or many — produce byte-identical lines; per-request
// wall-clock data lives only in the opt-in progress stream and the cache
// disposition only in the X-Tiscc-Cache header.
type EstimateResponse struct {
	Schema string `json:"schema"`

	Workload string  `json:"workload"`
	Distance int     `json:"distance"`
	Rounds   int     `json:"rounds"`
	Model    string  `json:"model"`
	P        float64 `json:"p"`
	Shots    int     `json:"shots"`
	Seed     int64   `json:"seed"`
	Workers  int     `json:"workers"`
	Decoded  bool    `json:"decoded"`

	Result   EstimateResult `json:"result"`
	Artifact ArtifactInfo   `json:"artifact"`
}

// Config parameterizes a Server.
type Config struct {
	// CacheBytes is the LRU byte budget of the compile cache (default 64 MiB).
	CacheBytes int
	// Logf, when non-nil, receives one line per compile, cache hit and
	// recovered panic (log.Printf-shaped).
	Logf func(format string, args ...any)
	// compile overrides the artifact compiler (tests).
	compile func(Key) (*Artifact, error)
}

// Server is the estimator service: an artifact cache plus HTTP handlers.
// One Server is safe for any number of concurrent requests.
type Server struct {
	cache *Cache
	met   *telemetry.Locked
	logf  func(format string, args ...any)
}

// NewServer builds a Server from cfg.
func NewServer(cfg Config) *Server {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	met := telemetry.NewLocked(MetricsSchema)
	compile := cfg.compile
	if compile == nil {
		compile = CompileArtifact
	}
	s := &Server{met: met, logf: logf}
	s.cache = NewCache(cfg.CacheBytes, func(k Key) (*Artifact, error) {
		//tiscc:nondeterministic compile-latency logging: timing feeds the operator log only, never the compiled artifact bytes
		t0 := time.Now()
		a, err := compile(k)
		if err != nil {
			s.logf("compile %v failed: %v", k, err)
			return nil, err
		}
		//tiscc:nondeterministic compile-latency logging: timing feeds the operator log only, never the compiled artifact bytes
		s.logf("compile %v in %s (bundle %d bytes, crc32 %08x)", k, time.Since(t0).Round(time.Millisecond), a.BundleBytes, a.BundleCRC)
		return a, nil
	}, met)
	return s
}

// Metrics snapshots the server counters, with the cache gauges filled in.
func (s *Server) Metrics() *telemetry.Snapshot {
	snap := s.met.Snapshot()
	n, bytes := s.cache.Stats()
	snap.SetCounter("artifacts_cached", uint64(n))
	snap.SetCounter("artifact_bytes", uint64(bytes))
	return snap
}

// Handler returns the server's HTTP mux: POST /v1/estimate, GET /metrics,
// GET /healthz — every route wrapped in the panic-recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s.recoverMiddleware(mux)
}

// recoverMiddleware is the backstop behind up-front request validation: a
// handler panic must never kill the server. The panic is counted, logged
// and converted to a 500 (when the header is still writable); the
// connection may drop mid-stream, but every other request keeps being
// served.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.Inc(CtrPanics)
				s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				// Best-effort 500: a no-op if the handler already wrote.
				w.WriteHeader(http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WritePrometheus(w, "tiscc", map[string]*telemetry.Snapshot{
		MetricsSchema.Component: s.Metrics(),
	})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.met.Inc(CtrRequests)
	//tiscc:nondeterministic request-latency histogram: timing feeds telemetry only, never response payloads
	t0 := time.Now()
	defer func() {
		//tiscc:nondeterministic request-latency histogram: timing feeds telemetry only, never response payloads
		s.met.Observe(HistRequestUS, uint64(time.Since(t0).Microseconds()))
	}()
	if r.Method != http.MethodPost {
		s.met.Inc(CtrBadRequests)
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodySize))
	dec.DisallowUnknownFields()
	var req EstimateRequest
	if err := dec.Decode(&req); err != nil {
		s.met.Inc(CtrBadRequests)
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if dec.More() {
		s.met.Inc(CtrBadRequests)
		httpError(w, http.StatusBadRequest, "bad request body: trailing data after the JSON object")
		return
	}
	if err := req.validate(); err != nil {
		s.met.Inc(CtrBadRequests)
		httpError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}

	key := req.key()
	spec, _ := key.Spec() // validated with the request
	art, hit, err := s.cache.Get(key)
	if err != nil {
		s.met.Inc(CtrErrors)
		httpError(w, http.StatusInternalServerError, "compile failed: %v", err)
		return
	}
	disposition := "miss"
	if hit {
		disposition = "hit"
		s.logf("cache hit %v", key)
	}
	w.Header().Set("X-Tiscc-Cache", disposition)
	// The body is the same on every host; which kernel drew its faults is
	// provenance, so it travels beside the disposition.
	w.Header().Set("X-Tiscc-Draw-Kernel", cpuid.DrawKernel())

	opt := noise.Options{
		Shots:   req.Shots,
		Seed:    req.Seed,
		Workers: req.Workers,
		Decoder: art.Graph,
	}

	var out io.Writer = w
	if req.Progress {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fw := &flushWriter{w: w}
		out = fw
		pw := diag.NewProgressWriter(fw, spec.String(), req.Shots)
		opt.Progress = pw.Batch
		defer func() {
			if perr := pw.Err(); perr != nil {
				s.logf("progress stream %v: %v", key, perr)
			}
		}()
	} else {
		w.Header().Set("Content-Type", "application/json")
	}

	// experiment.Estimate builds the frame sampler per request (cheap: the
	// cached program keeps its reference trace, so no tableau pass runs), so
	// concurrent requests never share mutable sampler state; the heavy
	// artifacts — program, schedule, graph — are the shared cached ones.
	res, err := experiment.Estimate(art.Sched, art.Outcome, art.Reference, opt)
	if err != nil {
		s.met.Inc(CtrErrors)
		var oe *noise.OptionError
		if !req.Progress && errors.As(err, &oe) {
			httpError(w, http.StatusBadRequest, "estimate: %v", err)
			return
		}
		// Headers (and possibly progress lines) are out; log and bail.
		s.logf("estimate %v failed: %v", key, err)
		if !req.Progress {
			httpError(w, http.StatusInternalServerError, "estimate: %v", err)
		}
		return
	}
	s.met.Add(CtrShotsServed, uint64(res.Shots))

	resp := EstimateResponse{
		Schema:   EstimateSchema,
		Workload: req.Workload,
		Distance: req.Distance,
		Rounds:   spec.NumRounds(),
		Model:    req.Model,
		P:        key.P,
		Shots:    req.Shots,
		Seed:     req.Seed,
		Workers:  req.Workers,
		Decoded:  true,
		Result: EstimateResult{
			Shots: res.Shots, Requested: res.Requested, Errors: res.Errors,
			PL: res.Rate, StdErr: res.StdErr,
			WilsonLow: res.WilsonLow, WilsonHigh: res.WilsonHigh,
			HalfWidth: res.HalfWidth, EarlyStopBatch: res.EarlyStopBatch,
			Reference: res.Reference, RawFallbacks: res.RawFallbacks,
		},
		Artifact: ArtifactInfo{
			BundleBytes:   art.BundleBytes,
			BundleCRC32:   fmt.Sprintf("%08x", art.BundleCRC),
			ProgramBytes:  art.ProgBytes,
			ScheduleBytes: art.SchedBytes,
			GraphBytes:    art.GraphBytes,
			FormatVersion: FormatVersion,
			Qubits:        art.Prog.NumQubits(),
			Instructions:  art.Prog.NumInstrs(),
			FaultSites:    art.Sched.NumFaultSites(),
			Detectors:     art.Graph.Detectors().NumDetectors(),
			Edges:         len(art.Graph.Edges()),
			Undecomposed:  art.Graph.UndecomposedMechanisms(),
			Undetectable:  art.Graph.UndetectableMechanisms(),
			Distance:      art.Distance,
		},
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(&resp); err != nil {
		s.met.Inc(CtrErrors)
		s.logf("write response %v: %v", key, err)
		return
	}
	s.met.Inc(CtrResponsesOK)
}

// flushWriter flushes after every write, so NDJSON progress lines stream to
// the client as they happen instead of buffering until the run completes.
type flushWriter struct {
	w http.ResponseWriter
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}
