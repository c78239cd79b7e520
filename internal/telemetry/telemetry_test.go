package telemetry

import (
	"encoding/json"
	"math/bits"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"tiscc/internal/cpuid"
)

var testSchema = &Schema{
	Component: "test",
	Counters:  []string{"alpha", "beta"},
	Hists:     []string{"sizes"},
}

// fill drives a deterministic synthetic workload through a shard: item i
// increments alpha once, adds i to beta, and observes i in the histogram.
func fill(sh *Shard, lo, hi int) {
	for i := lo; i < hi; i++ {
		sh.Inc(0)
		sh.Add(1, uint64(i))
		sh.Observe(0, uint64(i))
	}
}

// TestSnapshotMergeProperty is the sharding correctness property: for any
// split of the same workload across worker shards, the merged snapshot equals
// the serial single-shard counts — counters, histogram totals and buckets.
func TestSnapshotMergeProperty(t *testing.T) {
	const n = 1000
	serialSet := NewSet(testSchema)
	fill(serialSet.NewShard(), 0, n)
	serial := serialSet.Snapshot()
	for _, workers := range []int{1, 2, 3, 7, 64} {
		set := NewSet(testSchema)
		per := n / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*per, (w+1)*per
			if w == workers-1 {
				hi = n
			}
			fill(set.NewShard(), lo, hi)
		}
		snap := set.Snapshot()
		if err := snap.Check(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := snap.Counter("alpha"), serial.Counter("alpha"); got != want {
			t.Fatalf("workers=%d: alpha=%d, want %d", workers, got, want)
		}
		if got, want := snap.Counter("beta"), serial.Counter("beta"); got != want {
			t.Fatalf("workers=%d: beta=%d, want %d", workers, got, want)
		}
		gh, sh := snap.Hist("sizes"), serial.Hist("sizes")
		if *gh != *sh {
			t.Fatalf("workers=%d: histogram %+v, want %+v", workers, *gh, *sh)
		}
	}
}

// TestSnapshotMergeAccumulates checks explicit Snapshot.Merge: two disjoint
// snapshots sum, and mismatched schemas are rejected.
func TestSnapshotMergeAccumulates(t *testing.T) {
	a, b := NewSet(testSchema), NewSet(testSchema)
	fill(a.NewShard(), 0, 10)
	fill(b.NewShard(), 10, 30)
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if got := sa.Counter("alpha"); got != 30 {
		t.Fatalf("merged alpha=%d, want 30", got)
	}
	if got := sa.Hist("sizes").Count; got != 30 {
		t.Fatalf("merged hist count=%d, want 30", got)
	}
	other := NewSnapshot(&Schema{Component: "other", Counters: []string{"x"}})
	if err := sa.Merge(other); err == nil {
		t.Fatal("merging snapshots of different schemas did not fail")
	}
}

// TestHistBuckets pins the log2 bucketing: value v lands in bucket
// bits.Len64(v) (upper bound 2^len − 1), with outsized values clamped into
// the last bucket.
func TestHistBuckets(t *testing.T) {
	var h Hist
	values := []uint64{0, 1, 2, 3, 4, 255, 256, 1 << 40}
	for _, v := range values {
		h.Observe(v)
	}
	for _, v := range values {
		b := bits.Len64(v)
		if b >= NumBuckets {
			b = NumBuckets - 1
		}
		if h.Buckets[b] == 0 {
			t.Fatalf("value %d missing from bucket %d (upper %d)", v, b, BucketUpper(b))
		}
		if upper := BucketUpper(b); v > upper && b < NumBuckets-1 {
			t.Fatalf("value %d exceeds its bucket upper bound %d", v, upper)
		}
	}
	if h.Count != 8 || h.Max != 1<<40 {
		t.Fatalf("count=%d max=%d, want 8 and 2^40", h.Count, h.Max)
	}
}

// TestSnapshotJSONRoundTrip marshals a snapshot and reads it back: counters,
// histogram totals and bucket placement must survive the string-keyed JSON
// encoding.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	set := NewSet(testSchema)
	fill(set.NewShard(), 0, 100)
	snap := set.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Counter("alpha"), snap.Counter("alpha"); got != want {
		t.Fatalf("alpha=%d, want %d", got, want)
	}
	if got, want := back.Counter("beta"), snap.Counter("beta"); got != want {
		t.Fatalf("beta=%d, want %d", got, want)
	}
	gh, sh := back.Hist("sizes"), snap.Hist("sizes")
	if gh.Count != sh.Count || gh.Sum != sh.Sum || gh.Max != sh.Max || gh.Buckets != sh.Buckets {
		t.Fatalf("histogram %+v, want %+v", *gh, *sh)
	}
}

// TestManifestValidate builds a complete manifest and checks Validate accepts
// it and rejects targeted corruptions.
func TestManifestValidate(t *testing.T) {
	sp := NewSpans()
	end := sp.Start("stage")
	time.Sleep(time.Millisecond)
	end()
	man := NewManifest("test-tool")
	set := NewSet(testSchema)
	fill(set.NewShard(), 0, 5)
	man.AddPoint(Point{
		Labels:  map[string]any{"d": 3},
		Result:  map[string]any{"p_l": 0.1},
		Metrics: map[string]*Snapshot{"test": set.Snapshot()},
	})
	man.Finish(sp)
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if tot := man.SpanSecondsTotal(); tot <= 0 {
		t.Fatalf("span total %v, want > 0", tot)
	}
	corrupt := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"bad version", func(m *Manifest) { m.SchemaVersion = 99 }},
		{"no tool", func(m *Manifest) { m.Tool = "" }},
		{"no start", func(m *Manifest) { m.Started = time.Time{} }},
		{"negative wall", func(m *Manifest) { m.WallSeconds = -1 }},
		{"span past wall", func(m *Manifest) { m.Spans[0].MS = m.WallSeconds*1e3 + 100 }},
		{"unnamed span", func(m *Manifest) { m.Spans[0].Name = "" }},
		{"unlabeled point", func(m *Manifest) { m.Points[0].Labels = nil }},
		{"null snapshot", func(m *Manifest) { m.Points[0].Metrics["test"] = nil }},
		{"impossible cpus", func(m *Manifest) { m.Provenance.GOMAXPROCS = 0 }},
		{"unknown draw kernel", func(m *Manifest) { m.Provenance.DrawKernel = "sse9" }},
	}
	for _, tc := range corrupt {
		data, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		var cp Manifest
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&cp)
		if err := cp.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a corrupted manifest", tc.name)
		}
	}
}

// TestProvenanceKeys pins the provenance object's JSON keys: the ones every
// run writes, plus the build-stamp keys present only in VCS-stamped
// binaries. draw_kernel says which fault-draw kernel produced the run.
func TestProvenanceKeys(t *testing.T) {
	p := NewProvenance()
	if p.DrawKernel != cpuid.DrawKernel() {
		t.Fatalf("draw_kernel %q, want the host's %q", p.DrawKernel, cpuid.DrawKernel())
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"go_version", "goos", "goarch", "gomaxprocs", "num_cpu", "draw_kernel"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("provenance lacks %q: %s", k, data)
		}
		delete(keys, k)
	}
	for k := range keys {
		switch k {
		case "module", "git_revision", "git_modified":
		default:
			t.Errorf("provenance has unlisted key %q: %s", k, data)
		}
	}
}

// TestManifestFileRoundTrip writes a manifest to disk and reads it back
// through ReadManifest, the path the CLI smoke tests and CI schema check use.
func TestManifestFileRoundTrip(t *testing.T) {
	sp := NewSpans()
	man := NewManifest("test-tool")
	set := NewSet(testSchema)
	fill(set.NewShard(), 0, 7)
	man.AddPoint(Point{
		Labels:  map[string]any{"d": 5},
		Metrics: map[string]*Snapshot{"test": set.Snapshot()},
	})
	man.Finish(sp)
	path := t.TempDir() + "/manifest.json"
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "test-tool" || len(back.Points) != 1 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	merged := back.MergedMetrics()
	if merged["test"] == nil || merged["test"].Counter("alpha") != 7 {
		t.Fatalf("merged metrics lost counts: %+v", merged["test"])
	}
}

// TestWritePrometheus pins the text exposition shape: counter _total lines,
// cumulative histogram buckets ending at +Inf, and stage-span gauges.
func TestWritePrometheus(t *testing.T) {
	set := NewSet(testSchema)
	sh := set.NewShard()
	sh.Inc(0)
	sh.Inc(0)
	sh.Observe(0, 3)
	sh.Observe(0, 5)
	var b strings.Builder
	if err := WritePrometheus(&b, "ns", map[string]*Snapshot{"test": set.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ns_test_alpha_total counter",
		"ns_test_alpha_total 2",
		"ns_test_beta_total 0",
		"# TYPE ns_test_sizes histogram",
		`ns_test_sizes_bucket{le="3"} 1`,
		`ns_test_sizes_bucket{le="7"} 2`,
		`ns_test_sizes_bucket{le="+Inf"} 2`,
		"ns_test_sizes_sum 8",
		"ns_test_sizes_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	spans := []Span{{Name: "estimate", MS: 1500}, {Name: "estimate", MS: 500}, {Name: "compile", MS: 250}}
	if err := WriteSpansPrometheus(&b, "ns", spans); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{
		"# TYPE ns_stage_seconds gauge",
		`ns_stage_seconds{stage="compile"} 0.25`,
		`ns_stage_seconds{stage="estimate"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("span exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSpans checks span bookkeeping: named, ordered by completion, and inside
// the collector's wall clock.
func TestSpans(t *testing.T) {
	sp := NewSpans()
	endA := sp.Start("a")
	time.Sleep(time.Millisecond)
	endB := sp.Start("b")
	endB()
	endA()
	got := sp.Spans()
	if len(got) != 2 || got[0].Name != "b" || got[1].Name != "a" {
		t.Fatalf("spans %+v, want completion order b, a", got)
	}
	wallMS := sp.WallSeconds() * 1e3
	for _, s := range got {
		if s.StartMS+s.MS > wallMS+1 {
			t.Fatalf("span %q (%v+%v ms) outside wall %v ms", s.Name, s.StartMS, s.MS, wallMS)
		}
	}
	if got[1].MS < 1 {
		t.Fatalf("span a measured %v ms, want ≥ 1", got[1].MS)
	}
}

// TestMergeSchemaMismatch exercises the Merge error paths one by one: fewer
// counters, more counters, and a different histogram count must each be
// rejected with the mismatch message, and a failed merge must leave the
// receiver's counts untouched.
func TestMergeSchemaMismatch(t *testing.T) {
	mismatched := []struct {
		name   string
		schema *Schema
	}{
		{"fewer-counters", &Schema{Component: "test", Counters: []string{"alpha"}, Hists: []string{"sizes"}}},
		{"more-counters", &Schema{Component: "test", Counters: []string{"alpha", "beta", "gamma"}, Hists: []string{"sizes"}}},
		{"no-hists", &Schema{Component: "test", Counters: []string{"alpha", "beta"}}},
		{"more-hists", &Schema{Component: "test", Counters: []string{"alpha", "beta"}, Hists: []string{"sizes", "extra"}}},
	}
	for _, tc := range mismatched {
		t.Run(tc.name, func(t *testing.T) {
			set := NewSet(testSchema)
			fill(set.NewShard(), 0, 10)
			snap := set.Snapshot()
			err := snap.Merge(NewSnapshot(tc.schema))
			if err == nil {
				t.Fatal("Merge accepted a snapshot with a different schema")
			}
			if !strings.Contains(err.Error(), "merging mismatched snapshots") {
				t.Fatalf("error %q does not name the mismatch", err)
			}
			if got := snap.Counter("alpha"); got != 10 {
				t.Fatalf("failed merge mutated the receiver: alpha=%d, want 10", got)
			}
			if got := snap.Hist("sizes").Count; got != 10 {
				t.Fatalf("failed merge mutated the receiver: hist count=%d, want 10", got)
			}
		})
	}
	// Equal instrument counts under different names are indistinguishable by
	// shape and merge positionally — pin that this is accepted, so schema
	// identity is the caller's responsibility (as MergedMetrics does by key).
	snap := NewSet(testSchema).Snapshot()
	renamed := NewSnapshot(&Schema{Component: "test", Counters: []string{"a2", "b2"}, Hists: []string{"h2"}})
	if err := snap.Merge(renamed); err != nil {
		t.Fatalf("same-shape merge rejected: %v", err)
	}
}

// promNameRE is the exposition-format metric name grammar. Fragments are
// sanitized individually and joined with '_', so the joined name always has a
// legal leading character.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promLineRE matches one sample line: a legal metric name, an optional label
// set whose values use only the three escape sequences (no raw quote, newline
// or stray backslash), and a value.
var promLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*")*\})? -?[0-9+.eEIinf]+$`)

// hostileString draws a short string over an alphabet chosen to break naive
// exposition writers: quotes, backslashes, newlines, braces, spaces, UTF-8.
func hostileString(rng *rand.Rand) string {
	alphabet := []rune{'a', 'Z', '0', '9', '_', ':', '-', ' ', '"', '\\', '\n', '{', '}', '=', ',', '.', 'é', '界'}
	n := rng.Intn(8)
	rs := make([]rune, n)
	for i := range rs {
		rs[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(rs)
}

// TestPrometheusEscapingProperty is the escaping property test: for generated
// hostile namespace, component, instrument and span names, every line the
// writers emit must still parse under the exposition grammar — metric names
// sanitized, label values escaped, one sample per line.
func TestPrometheusEscapingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		schema := &Schema{
			Component: hostileString(rng),
			Counters:  []string{hostileString(rng), hostileString(rng)},
			Hists:     []string{hostileString(rng)},
		}
		set := NewSet(schema)
		sh := set.NewShard()
		sh.Inc(0)
		sh.Add(1, uint64(rng.Intn(100)))
		sh.Observe(0, uint64(rng.Intn(1<<20)))
		var b strings.Builder
		ns := hostileString(rng)
		if err := WritePrometheus(&b, ns, map[string]*Snapshot{schema.Component: set.Snapshot()}); err != nil {
			t.Fatal(err)
		}
		spans := []Span{{Name: hostileString(rng), MS: 12}, {Name: hostileString(rng), MS: 34}}
		if err := WriteSpansPrometheus(&b, ns, spans); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fields := strings.Fields(name)
				if len(fields) != 2 || !promNameRE.MatchString(fields[0]) {
					t.Fatalf("iter %d: bad TYPE line %q", iter, line)
				}
				continue
			}
			if !promLineRE.MatchString(line) {
				t.Fatalf("iter %d: unparseable sample line %q (namespace %q, component %q)",
					iter, line, ns, schema.Component)
			}
		}
	}
}

// TestSetCounterUnknownPanics pins the fail-fast contract for misspelled
// instrument names in SetCounter (compile-time metrics fill).
func TestSetCounterUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetCounter on an unknown name did not panic")
		}
	}()
	NewSnapshot(testSchema).SetCounter("nope", 1)
}
