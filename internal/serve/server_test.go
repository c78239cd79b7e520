package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tiscc/internal/cpuid"
	"tiscc/internal/diag"
	"tiscc/internal/frame"
	"tiscc/internal/noise"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Config{Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postEstimate(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/estimate: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func assertHealthy(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server is down: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
}

// TestHostileRequestsRejected proves the bugfix contract: request-reachable
// panics (grid sizes, layout parameters) are unreachable because validation
// rejects the inputs up front with HTTP 400 — and the server stays up.
func TestHostileRequestsRejected(t *testing.T) {
	srv, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"empty body", ""},
		{"not json", "distance=3"},
		{"unknown field", `{"distance": 3, "dinstance": 5}`},
		{"zero distance", `{"distance": 0}`},
		{"negative distance", `{"distance": -3}`},
		{"distance 1", `{"distance": 1}`},
		{"huge distance", `{"distance": 100000}`},
		{"negative rounds", `{"distance": 3, "rounds": -1}`},
		{"huge rounds", `{"distance": 3, "rounds": 1000000}`},
		{"bad workload", `{"distance": 3, "workload": "teleport"}`},
		{"bad model", `{"distance": 3, "model": "exotic"}`},
		{"p over 1", `{"distance": 3, "p": 1.5}`},
		{"p negative", `{"distance": 3, "p": -0.1}`},
		{"negative shots", `{"distance": 3, "shots": -5}`},
		{"huge shots", `{"distance": 3, "shots": 100000000}`},
		{"negative workers", `{"distance": 3, "workers": -1}`},
		{"huge workers", `{"distance": 3, "workers": 100000}`},
		{"distance as string", `{"distance": "three"}`},
		{"trailing garbage", `{"distance": 3}{"distance": 5}`},
	}
	for _, tc := range cases {
		resp, body := postEstimate(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q is not {\"error\": ...}", tc.name, body)
		}
		assertHealthy(t, ts)
	}
	if got := srv.met.Counter(CtrBadRequests); got != uint64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", got, len(cases))
	}
	if got := srv.met.Counter(CtrPanics); got != 0 {
		t.Errorf("panics = %d, want 0 — validation should make panics unreachable", got)
	}

	// Wrong methods are rejected too.
	resp, err := http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/estimate = %d, want 405", resp.StatusCode)
	}
	assertHealthy(t, ts)
}

// TestPanicRecovery proves the backstop: if a handler panics anyway, the
// middleware converts it to a 500, counts it, and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	srv := NewServer(Config{
		Logf: t.Logf,
		compile: func(Key) (*Artifact, error) {
			panic("grid: size must be positive")
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"distance": 3, "p": 0.001, "shots": 10}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := srv.met.Counter(CtrPanics); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	assertHealthy(t, ts)
}

// TestEstimateMatchesInProcess proves the service contract: the HTTP result
// is bit-identical to the in-process pipeline for the same parameters.
func TestEstimateMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t)
	const (
		d     = 3
		p     = 2e-3
		shots = 300
		seed  = int64(7)
	)
	resp, body := postEstimate(t, ts,
		fmt.Sprintf(`{"distance": %d, "p": %g, "shots": %d, "seed": %d, "workers": 2}`, d, p, shots, seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Schema != EstimateSchema {
		t.Fatalf("schema %q, want %q", got.Schema, EstimateSchema)
	}

	// The same estimate, computed in process through the same pipeline the
	// CLI uses (workers intentionally different: results must not depend
	// on scheduling).
	art := compileFresh(t, Key{Workload: WorkloadMemory, Distance: d, Model: ModelDepolarizing, P: p})
	sim, err := frame.New(art.Prog, art.Sched)
	if err != nil {
		t.Fatal(err)
	}
	want, err := noise.EstimateLogicalError(art.Sched, art.Outcome, art.Reference, noise.Options{
		Shots: shots, Seed: seed, Workers: 1, Decoder: art.Graph, Sampler: sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.PL != want.Rate || got.Result.Errors != want.Errors ||
		got.Result.Shots != want.Shots || got.Result.WilsonLow != want.WilsonLow ||
		got.Result.WilsonHigh != want.WilsonHigh || got.Result.StdErr != want.StdErr {
		t.Fatalf("HTTP result differs from in-process pipeline:\nhttp:       %+v\nin-process: %+v", got.Result, want)
	}
	// The degraded-DEM report echoes the compiled graph: a distance-d
	// memory experiment certifies distance d with nothing dropped.
	a := got.Artifact
	if a.Distance != d || a.Undetectable != 0 || a.Undecomposed != art.Graph.UndecomposedMechanisms() {
		t.Fatalf("artifact DEM report %+v, want distance %d, 0 undetectable, %d undecomposed",
			a, d, art.Graph.UndecomposedMechanisms())
	}
	if key := `"undetectable_mechanisms":0,"distance":3}`; !bytes.Contains(body, []byte(key)) ||
		!bytes.Contains(body, []byte(`"undecomposed_mechanisms":`)) {
		t.Errorf("response body lacks the DEM report fields: %s", body)
	}
}

// TestCacheHitByteIdentical proves the second service contract: an identical
// request is a cache hit and its response body is byte-for-byte identical to
// the first (the cache disposition lives in the X-Tiscc-Cache header only).
func TestCacheHitByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{"distance": 3, "p": 0.002, "shots": 200, "seed": 11, "workers": 2}`

	resp1, body1 := postEstimate(t, ts, body)
	resp2, body2 := postEstimate(t, ts, body)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d, want 200", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Tiscc-Cache"); got != "miss" {
		t.Errorf("first request X-Tiscc-Cache = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Tiscc-Cache"); got != "hit" {
		t.Errorf("second request X-Tiscc-Cache = %q, want hit", got)
	}
	for _, r := range []*http.Response{resp1, resp2} {
		if got, want := r.Header.Get("X-Tiscc-Draw-Kernel"), cpuid.DrawKernel(); got != want {
			t.Errorf("X-Tiscc-Draw-Kernel = %q, want the host's %q", got, want)
		}
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs byte-for-byte:\nfirst:  %s\nsecond: %s", body1, body2)
	}
	if got := srv.met.Counter(CtrCacheHits); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
	if got := srv.met.Counter(CtrCompiles); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}

	// Different worker counts must not change the body either.
	_, body3 := postEstimate(t, ts, `{"distance": 3, "p": 0.002, "shots": 200, "seed": 11, "workers": 2}`)
	if !bytes.Equal(body1, body3) {
		t.Fatal("third identical request differs")
	}
}

// TestProgressStream checks the opt-in NDJSON stream: progress events in the
// tiscc.progress/v1 schema, then exactly one final result line.
func TestProgressStream(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postEstimate(t, ts,
		`{"distance": 3, "p": 0.002, "shots": 200, "seed": 1, "progress": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("got %d NDJSON lines, want at least a start event and a result", len(lines))
	}
	finals := 0
	for i, line := range lines {
		var probe struct {
			Schema string `json:"schema"`
			Label  string `json:"label"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("line %d is not JSON: %q", i, line)
		}
		switch probe.Schema {
		case diag.ProgressSchema:
			// The label spells p as the request did (%g), so clients can
			// match events to the points they asked for.
			if probe.Label != "memory d=3 p=0.002" {
				t.Fatalf("line %d label %q, want %q", i, probe.Label, "memory d=3 p=0.002")
			}
		case EstimateSchema:
			finals++
			if i != len(lines)-1 {
				t.Fatalf("result line %d is not last of %d", i, len(lines))
			}
		default:
			t.Fatalf("line %d has schema %q", i, probe.Schema)
		}
	}
	if finals != 1 {
		t.Fatalf("%d final result lines, want 1", finals)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if _, body := postEstimate(t, ts, `{"distance": 3, "p": 0.002, "shots": 100, "seed": 1}`); body == nil {
		t.Fatal("estimate failed")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"tiscc_serve_requests_total 1",
		"tiscc_serve_responses_ok_total 1",
		"tiscc_serve_cache_misses_total 1",
		"tiscc_serve_compiles_total 1",
		"tiscc_serve_artifacts_cached_total 1",
		"tiscc_serve_shots_served_total 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "tiscc_serve_artifact_bytes_total") {
		t.Error("/metrics missing artifact_bytes gauge")
	}
}

func TestSurgeryAndTable5Served(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postEstimate(t, ts,
		`{"workload": "surgery", "distance": 3, "model": "table5", "shots": 100, "seed": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != WorkloadSurgery || got.Model != ModelTable5 || !got.Decoded {
		t.Fatalf("echoed config wrong: %+v", got)
	}
	if got.Artifact.BundleBytes == 0 || got.Artifact.Detectors == 0 || got.Artifact.Edges == 0 {
		t.Fatalf("artifact manifest empty: %+v", got.Artifact)
	}
	if got.Artifact.Distance != 3 || got.Artifact.Undetectable != 0 {
		t.Fatalf("surgery d=3 artifact reports distance %d with %d undetectable mechanisms, want 3 and 0",
			got.Artifact.Distance, got.Artifact.Undetectable)
	}
}

// TestShapeHitByteIdentical proves the shape layer changes no byte: a
// request compiled on a cached shape (another p, then another model on
// the same workload, distance and rounds) answers exactly as a fresh
// server's miss does, and a repeat of it is a plain hit with the same
// body. Both fresh and cached artifacts equal CompileArtifact's bundle.
func TestShapeHitByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t)
	first := `{"workload": "surgery", "distance": 3, "p": 0.001, "shots": 200, "seed": 5}`
	if resp, body := postEstimate(t, ts, first); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	for i, req := range []string{
		`{"workload": "surgery", "distance": 3, "p": 0.004, "shots": 200, "seed": 5}`,
		`{"workload": "surgery", "distance": 3, "model": "table5", "shots": 200, "seed": 5}`,
	} {
		miss, missBody := postEstimate(t, ts, req)
		hit, hitBody := postEstimate(t, ts, req)
		_, fresh := newTestServer(t)
		freshResp, freshBody := postEstimate(t, fresh, req)
		for _, r := range []*http.Response{miss, hit, freshResp} {
			if r.StatusCode != 200 {
				t.Fatalf("request %d: status %d", i, r.StatusCode)
			}
		}
		if got := miss.Header.Get("X-Tiscc-Cache") + "/" + hit.Header.Get("X-Tiscc-Cache"); got != "miss/hit" {
			t.Fatalf("request %d: dispositions %s, want miss/hit", i, got)
		}
		if !bytes.Equal(missBody, freshBody) || !bytes.Equal(hitBody, freshBody) {
			t.Fatalf("request %d: shape-hit bodies differ from a fresh miss:\nshape miss: %s\nhit:        %s\nfresh:      %s", i, missBody, hitBody, freshBody)
		}
		if got := srv.met.Counter(CtrShapeHits); got != uint64(i+1) {
			t.Fatalf("after request %d: shape_hits = %d, want %d", i, got, i+1)
		}
	}
	if got := srv.met.Counter(CtrShapeCompiles); got != 1 {
		t.Fatalf("shape_compiles = %d, want 1", got)
	}
	for _, k := range []Key{
		{Workload: WorkloadSurgery, Distance: 3, Model: ModelDepolarizing, P: 0.004},
		{Workload: WorkloadSurgery, Distance: 3, Model: ModelTable5},
	} {
		cached, _, err := srv.cache.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CompileArtifact(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeBundle(cached), EncodeBundle(fresh)) || cached.BundleCRC != fresh.BundleCRC ||
			cached.BundleBytes != fresh.BundleBytes || cached.Distance != fresh.Distance {
			t.Fatalf("%v: the artifact compiled on a cached shape differs from CompileArtifact's", k)
		}
	}
}
