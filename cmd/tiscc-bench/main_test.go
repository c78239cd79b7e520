package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tiscc/internal/telemetry"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("3, 5,7")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
		t.Fatalf("parseInts = %v", got)
	}
	for _, s := range []string{"", "3,,5", "3,x", "3.5"} {
		if _, err := parseInts(s); err == nil {
			t.Fatalf("parseInts(%q) accepted malformed input", s)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("1e-4, 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1e-4 || got[1] != 0.5 {
		t.Fatalf("parseFloats = %v", got)
	}
	for _, s := range []string{"", "0.1,,0.2", "zzz"} {
		if _, err := parseFloats(s); err == nil {
			t.Fatalf("parseFloats(%q) accepted malformed input", s)
		}
	}
}

func TestValidateDistance(t *testing.T) {
	for _, d := range []int{2, 3, 13} {
		if err := validateDistance(d); err != nil {
			t.Fatalf("validateDistance(%d): %v", d, err)
		}
	}
	for _, d := range []int{1, 0, -3} {
		if err := validateDistance(d); err == nil {
			t.Fatalf("validateDistance(%d) accepted an invalid distance", d)
		}
	}
}

// TestCLIErrorPaths re-executes the test binary as the tiscc-bench CLI with
// invalid flags and asserts each run exits with a usage error (status 2)
// rather than an internal panic with a stack trace.
func TestCLIErrorPaths(t *testing.T) {
	if os.Getenv("TISCC_BENCH_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"tiscc-bench"}, strings.Split(os.Getenv("TISCC_BENCH_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative-d", []string{"-table", "1", "-d", "-3"}, "code distance must be ≥ 2"},
		{"zero-d", []string{"-figure", "1", "-d", "0"}, "code distance must be ≥ 2"},
		{"negative-dlist", []string{"-noise", "-dlist", "-3", "-plist", "1e-3"}, "code distance must be ≥ 2"},
		{"bad-dlist", []string{"-noise", "-dlist", "3,x"}, "bad -dlist"},
		{"bad-plist", []string{"-noise", "-plist", "zzz"}, "bad -plist"},
		{"plist-range", []string{"-noise", "-plist", "1.5"}, "not a probability"},
		{"plist-negative", []string{"-noise", "-plist", "-0.2"}, "not a probability"},
		{"negative-rounds", []string{"-noise", "-rounds", "-1"}, "-rounds must be ≥ 0"},
		{"zero-shots", []string{"-noise", "-shots", "0"}, "-shots must be ≥ 1"},
		{"negative-workers", []string{"-noise", "-workers", "-1"}, "-workers must be ≥ 0"},
		// -engine does not exist: the sampler follows from the program.
		{"bad-engine", []string{"-noise", "-engine", "stim"}, "flag provided but not defined: -engine"},
		{"bad-model", []string{"-noise", "-model", "exotic"}, "bad -model"},
		{"json-alone", []string{"-json"}, "-json requires -noise or -surgery"},
		{"json-with-table", []string{"-table", "1", "-json"}, "-json requires -noise or -surgery"},
		{"metrics-without-noise", []string{"-table", "1", "-metrics", "run.json"}, "-metrics requires -noise or -surgery"},
		{"prom-without-noise", []string{"-verify", "-prom", "run.prom"}, "-prom requires -noise or -surgery"},
		{"diag-without-sweep", []string{"-verify", "-diag"}, "-diag requires -noise or -surgery"},
		{"dem-calib-without-decode", []string{"-noise", "-dem-calib"}, "-dem-calib requires a decoded sweep"},
		{"progress-without-sweep", []string{"-table", "1", "-progress"}, "-progress requires -noise or -surgery"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestCLIErrorPaths")
			cmd.Env = append(os.Environ(),
				"TISCC_BENCH_RUN_MAIN=1",
				"TISCC_BENCH_ARGS="+strings.Join(tc.args, "\x1f"))
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("args %v: expected a usage-error exit, got err=%v output=%q", tc.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("args %v: exit code %d, want 2; output:\n%s", tc.args, code, out)
			}
			if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
				t.Fatalf("args %v: CLI panicked:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("args %v: output missing %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// runCLI re-executes the test binary as the tiscc-bench CLI (success path)
// and returns its combined output.
func runCLI(t *testing.T, testName string, args []string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", testName)
	cmd.Env = append(os.Environ(),
		"TISCC_BENCH_RUN_MAIN=1",
		"TISCC_BENCH_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("args %v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestMetricsManifest is the telemetry smoke test: a real decoded noise sweep
// with -metrics and -prom must produce a manifest that passes the schema
// check, whose stage spans account for ≥90% of the run's wall time, and whose
// sampler/decoder counters are nonzero and mutually consistent.
func TestMetricsManifest(t *testing.T) {
	if os.Getenv("TISCC_BENCH_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"tiscc-bench"}, strings.Split(os.Getenv("TISCC_BENCH_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	manPath := filepath.Join(dir, "run.json")
	promPath := filepath.Join(dir, "run.prom")
	const shots = 512
	runCLI(t, "TestMetricsManifest", []string{
		"-noise", "-decode", "-dlist", "3", "-plist", "3e-3",
		"-shots", "512", "-seed", "1",
		"-metrics", manPath, "-prom", promPath,
	})
	man, err := telemetry.ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "tiscc-bench" {
		t.Fatalf("manifest tool %q", man.Tool)
	}
	if cover := man.SpanSecondsTotal() / man.WallSeconds; cover < 0.9 {
		t.Fatalf("stage spans cover %.0f%% of wall time, want ≥ 90%%\nspans: %+v", cover*100, man.Spans)
	}
	if len(man.Points) != 1 {
		t.Fatalf("manifest has %d points, want 1", len(man.Points))
	}
	pt := man.Points[0]
	if got := pt.Result["shots"]; got != float64(shots) {
		t.Fatalf("point shots %v, want %d", got, shots)
	}
	sampler := pt.Metrics["sampler"]
	dec := pt.Metrics["decoder"]
	if sampler == nil || dec == nil {
		t.Fatalf("point metrics missing sampler/decoder: %v", pt.Metrics)
	}
	// Self-consistency: the decoder judged every requested shot, the sampler
	// ran at least those, and the noisy run actually fired faults.
	if got := dec.Counter("shots"); got != shots {
		t.Fatalf("decoder counted %d shots, want %d", got, shots)
	}
	if got := sampler.Counter("shots"); got < shots {
		t.Fatalf("sampler counted %d shots, want ≥ %d", got, shots)
	}
	if sampler.Counter("batches") == 0 || sampler.Counter("faults_fired") == 0 {
		t.Fatalf("sampler counters empty: batches=%d faults_fired=%d",
			sampler.Counter("batches"), sampler.Counter("faults_fired"))
	}
	if sampler.Counter("meas_random")+sampler.Counter("meas_det") == 0 {
		t.Fatal("sampler counted no measurements")
	}
	if dec.Counter("defects") != dec.Counter("clusters_seeded") {
		t.Fatalf("defects %d != clusters_seeded %d", dec.Counter("defects"), dec.Counter("clusters_seeded"))
	}
	if dec.Counter("empty_syndromes") > shots {
		t.Fatalf("empty_syndromes %d exceeds shot count", dec.Counter("empty_syndromes"))
	}
	if h := dec.Hist("defects_per_shot"); h.Count != shots || h.Sum != dec.Counter("defects") {
		t.Fatalf("defects_per_shot histogram inconsistent: count=%d sum=%d", h.Count, h.Sum)
	}
	if dec.Counter("detectors") == 0 || dec.Counter("edges") == 0 {
		t.Fatal("decoder graph metrics empty")
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tiscc_decoder_shots_total 512",
		"tiscc_sampler_faults_fired_total",
		`tiscc_stage_seconds{stage="estimate"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

// TestNoiseJSONManifest checks that -noise -json emits the run manifest
// (not the human table) on stdout, valid under the same schema check.
func TestNoiseJSONManifest(t *testing.T) {
	if os.Getenv("TISCC_BENCH_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"tiscc-bench"}, strings.Split(os.Getenv("TISCC_BENCH_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	out := runCLI(t, "TestNoiseJSONManifest", []string{
		"-noise", "-dlist", "3", "-plist", "1e-3,3e-3", "-shots", "128", "-json",
	})
	if strings.Contains(out, "p_phys") {
		t.Fatalf("-json still printed the human table:\n%s", out)
	}
	// The child may append the test framework's PASS line; parse only the
	// JSON document at the start.
	dec := strings.Index(out, "{")
	if dec < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	path := filepath.Join(t.TempDir(), "stdout.json")
	end := strings.LastIndex(out, "}")
	if err := os.WriteFile(path, []byte(out[dec:end+1]), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := telemetry.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(man.Points) != 2 {
		t.Fatalf("manifest has %d points, want 2 (one per -plist entry)", len(man.Points))
	}
	for i, pt := range man.Points {
		if pt.Result["shots"] != float64(128) {
			t.Fatalf("point %d shots %v, want 128", i, pt.Result["shots"])
		}
		if pt.Metrics["sampler"].Counter("shots") < 128 {
			t.Fatalf("point %d sampler shots %d", i, pt.Metrics["sampler"].Counter("shots"))
		}
	}
}

// TestSurgeryJSONManifest checks that -surgery on its own (no -noise) runs
// the sweep and that -json is accepted with it: the manifest must carry
// surgery-labeled points.
func TestSurgeryJSONManifest(t *testing.T) {
	if os.Getenv("TISCC_BENCH_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"tiscc-bench"}, strings.Split(os.Getenv("TISCC_BENCH_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	out := runCLI(t, "TestSurgeryJSONManifest", []string{
		"-surgery", "-json", "-dlist", "3", "-plist", "3e-3", "-shots", "64",
	})
	start := strings.Index(out, "{")
	end := strings.LastIndex(out, "}")
	if start < 0 || end < start {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	path := filepath.Join(t.TempDir(), "stdout.json")
	if err := os.WriteFile(path, []byte(out[start:end+1]), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := telemetry.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(man.Points) != 1 {
		t.Fatalf("manifest has %d points, want 1", len(man.Points))
	}
	if got := man.Points[0].Labels["workload"]; got != "surgery" {
		t.Fatalf("point workload %v, want surgery", got)
	}
	if man.Config["workload"] != "surgery" {
		t.Fatalf("config workload %v, want surgery", man.Config["workload"])
	}
}

// TestDiagManifest runs a decoded sweep with the full diagnostics surface on
// (-diag -dem-calib -progress) and checks the extended manifest sections:
// attribution contributions summing to p_L, a calibration block with one row
// per detector, error_budget counters in the merged metrics, and a
// well-formed NDJSON progress stream.
func TestDiagManifest(t *testing.T) {
	if os.Getenv("TISCC_BENCH_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"tiscc-bench"}, strings.Split(os.Getenv("TISCC_BENCH_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	manPath := filepath.Join(dir, "run.json")
	progPath := filepath.Join(dir, "progress.ndjson")
	out := runCLI(t, "TestDiagManifest", []string{
		"-noise", "-decode", "-dlist", "3", "-plist", "3e-3",
		"-shots", "512", "-seed", "1",
		"-diag", "-dem-calib", "-progress=" + progPath, "-metrics", manPath,
	})
	if !strings.Contains(out, "error budget:") || !strings.Contains(out, "detector calibration:") {
		t.Fatalf("diagnostics tables missing from output:\n%s", out)
	}
	man, err := telemetry.ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	pt := man.Points[0]
	att, ok := pt.Attribution.(map[string]any)
	if !ok {
		t.Fatalf("point attribution is %T, want an object", pt.Attribution)
	}
	pl := att["p_l"].(float64)
	var sum float64
	for _, ch := range att["channels"].([]any) {
		sum += ch.(map[string]any)["p_l_contribution"].(float64)
	}
	if diff := sum - pl; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("attribution contributions sum to %v, p_L is %v", sum, pl)
	}
	dets, ok := pt.Detectors.(map[string]any)
	if !ok {
		t.Fatalf("point detectors is %T, want an object", pt.Detectors)
	}
	if n := len(dets["detectors"].([]any)); n == 0 {
		t.Fatal("detectors section has no rows")
	}
	if pt.Metrics["error_budget"] == nil {
		t.Fatal("point metrics missing error_budget")
	}
	if pt.Metrics["error_budget"].Counter("shots") != 512 {
		t.Fatalf("error_budget shots %d, want 512", pt.Metrics["error_budget"].Counter("shots"))
	}
	prog, err := os.ReadFile(progPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(prog)), "\n")
	if len(lines) < 3 { // start + ≥1 batch + done
		t.Fatalf("progress stream has %d events, want ≥ 3:\n%s", len(lines), prog)
	}
	prevDone := -1
	for i, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("progress line %d is not JSON: %v\n%s", i, err, ln)
		}
		if ev["schema"] != "tiscc.progress/v1" {
			t.Fatalf("progress line %d schema %v", i, ev["schema"])
		}
		done := int(ev["done"].(float64))
		if done < prevDone {
			t.Fatalf("progress done went backwards: %d after %d", done, prevDone)
		}
		prevDone = done
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["event"] != "done" || int(last["done"].(float64)) != 512 {
		t.Fatalf("final progress event %v", last)
	}
}
