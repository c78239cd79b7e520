package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tiscc/internal/cpuid"
	"tiscc/internal/telemetry"
)

func TestParseDSpec(t *testing.T) {
	good := []struct {
		spec      string
		d, rounds int
	}{
		{"3", 3, 3},
		{"5:2", 5, 2},
		{"2:0", 2, 0},
		{" 7 : 4 ", 7, 4},
	}
	for _, tc := range good {
		d, r, err := parseDSpec("memory", tc.spec)
		if err != nil {
			t.Fatalf("parseDSpec(%q): %v", tc.spec, err)
		}
		if d != tc.d || r != tc.rounds {
			t.Fatalf("parseDSpec(%q) = (%d, %d), want (%d, %d)", tc.spec, d, r, tc.d, tc.rounds)
		}
	}
	bad := []string{"", "abc", "3:xyz", "0", "1", "-3", "3:-2", "-1:4", "3:2:1x"}
	for _, spec := range bad {
		if _, _, err := parseDSpec("memory", spec); err == nil {
			t.Fatalf("parseDSpec(%q) accepted an invalid spec", spec)
		}
	}
}

func TestValidateProb(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		if err := validateProb("-noise", p); err != nil {
			t.Fatalf("validateProb(%v): %v", p, err)
		}
	}
	nan := 0.0
	nan /= nan
	for _, p := range []float64{-0.1, 1.0001, 15, nan} {
		if err := validateProb("-noise", p); err == nil {
			t.Fatalf("validateProb(%v) accepted an out-of-range probability", p)
		}
	}
}

func TestValidateShots(t *testing.T) {
	if err := validateShots(1); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, -5} {
		if err := validateShots(s); err == nil {
			t.Fatalf("validateShots(%d) accepted a non-positive count", s)
		}
	}
}

// TestCLIErrorPaths re-executes the test binary as the orqcs CLI with
// invalid flags and asserts each run exits with a usage error (status 2,
// "orqcs:" message) rather than an internal panic with a stack trace.
func TestCLIErrorPaths(t *testing.T) {
	if os.Getenv("ORQCS_RUN_MAIN") == "1" {
		// Child process: become the CLI.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"orqcs"}, strings.Split(os.Getenv("ORQCS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative-distance", []string{"-memory", "-3"}, "distance must be ≥ 2"},
		{"zero-distance", []string{"-memory", "0"}, "distance must be ≥ 2"},
		{"negative-rounds", []string{"-memory", "3:-2"}, "rounds must be ≥ 0"},
		{"bad-spec", []string{"-surgery", "abc"}, "bad -surgery"},
		{"surgery-negative", []string{"-surgery", "-5:1"}, "distance must be ≥ 2"},
		{"noise-too-big", []string{"-memory", "3", "-noise", "1.5"}, "probability in [0, 1]"},
		{"noise-negative", []string{"-memory", "3", "-noise", "-0.25"}, "probability in [0, 1]"},
		{"zero-shots", []string{"-memory", "3", "-shots", "0"}, "-shots must be ≥ 1"},
		{"shots-without-expect", []string{"-circuit", "x.tiscc", "-shots", "50"}, "-shots with -circuit requires -expect"},
		{"negative-workers", []string{"-memory", "3", "-workers", "-2"}, "-workers must be ≥ 0"},
		// -engine does not exist: the sampler follows from the program.
		{"bad-engine", []string{"-memory", "3", "-engine", "stim"}, "flag provided but not defined: -engine"},
		{"fuse-with-experiment", []string{"-memory", "3", "-fuse"}, "-fuse applies to -circuit only"},
		{"fuse-with-noise", []string{"-circuit", "x.tiscc", "-fuse", "-noise", "1e-3"}, "-fuse cannot be combined with -noise"},
		{"both-experiments", []string{"-memory", "3", "-surgery", "3"}, "mutually exclusive"},
		{"metrics-without-experiment", []string{"-circuit", "x.tiscc", "-metrics", "m.json"}, "-metrics requires -memory or -surgery"},
		{"prom-without-experiment", []string{"-circuit", "x.tiscc", "-prom", "m.prom"}, "-prom requires -memory or -surgery"},
		{"diag-without-noise", []string{"-memory", "3", "-diag"}, "-diag requires -memory or -surgery with -noise"},
		{"dem-calib-without-decode", []string{"-memory", "3", "-noise", "1e-3", "-dem-calib"}, "-dem-calib requires a decoded noisy experiment"},
		{"progress-without-noise", []string{"-memory", "3", "-progress"}, "-progress requires -memory or -surgery with -noise"},
		{"nothing", []string{}, "is required"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestCLIErrorPaths")
			cmd.Env = append(os.Environ(),
				"ORQCS_RUN_MAIN=1",
				"ORQCS_ARGS="+strings.Join(tc.args, "\x1f"))
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

// TestMemoryMetricsManifest runs a real decoded -memory estimation through
// the re-exec harness with -metrics and validates the resulting manifest:
// schema check, stage spans inside wall time, and nonzero pipeline counters.
func TestMemoryMetricsManifest(t *testing.T) {
	if os.Getenv("ORQCS_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"orqcs"}, strings.Split(os.Getenv("ORQCS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	manPath := filepath.Join(t.TempDir(), "run.json")
	args := []string{"-memory", "3", "-noise", "2e-3", "-decode", "-shots", "256", "-metrics", manPath}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMemoryMetricsManifest")
	cmd.Env = append(os.Environ(),
		"ORQCS_RUN_MAIN=1",
		"ORQCS_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("args %v failed: %v\n%s", args, err, out)
	}
	man, err := telemetry.ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "orqcs" || len(man.Points) != 1 {
		t.Fatalf("manifest tool=%q points=%d", man.Tool, len(man.Points))
	}
	if got, want := man.Provenance.DrawKernel, cpuid.DrawKernel(); got != want {
		t.Fatalf("manifest draw_kernel %q, want the host's %q", got, want)
	}
	pt := man.Points[0]
	if pt.Result["shots"] != float64(256) {
		t.Fatalf("point shots %v, want 256", pt.Result["shots"])
	}
	for _, comp := range []string{"program", "noise", "sampler", "decoder"} {
		if pt.Metrics[comp] == nil {
			t.Fatalf("point metrics missing %q: %v", comp, pt.Metrics)
		}
	}
	if got := pt.Metrics["decoder"].Counter("shots"); got != 256 {
		t.Fatalf("decoder counted %d shots, want 256", got)
	}
	if pt.Metrics["program"].Counter("instructions") == 0 ||
		pt.Metrics["noise"].Counter("fault_sites") == 0 {
		t.Fatal("compile-time metrics empty")
	}
}

// TestMemoryProm checks the -prom flag (shared with tiscc-bench via the
// manifest's Prometheus writer): a decoded -memory run must emit the decoder
// shot counter, a sampler counter and the stage-span gauge under the tiscc
// namespace.
func TestMemoryProm(t *testing.T) {
	if os.Getenv("ORQCS_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"orqcs"}, strings.Split(os.Getenv("ORQCS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	promPath := filepath.Join(t.TempDir(), "run.prom")
	args := []string{"-memory", "3", "-noise", "2e-3", "-decode", "-shots", "256", "-prom", promPath}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMemoryProm")
	cmd.Env = append(os.Environ(),
		"ORQCS_RUN_MAIN=1",
		"ORQCS_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("args %v failed: %v\n%s", args, err, out)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tiscc_decoder_shots_total 256",
		"tiscc_sampler_faults_fired_total",
		`tiscc_stage_seconds{stage="estimate"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}
