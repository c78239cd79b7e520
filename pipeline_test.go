package tiscc_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"tiscc"
	"tiscc/internal/experiment"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/serve"
)

// agreementOpt is the estimate every entry point runs in the agreement and
// rounds tests: depolarizing 3e-3, seed 1, 200 decoded shots.
var agreementOpt = tiscc.LogicalErrorOptions{Shots: 200, Seed: 1}

const agreementP = 3e-3

// TestEntryPointsAgree pins the one-pipeline contract: the facade, a
// serve.CompileArtifact estimate and the shared CLI point runner compile and
// sample the same experiment, so they return identical results — for the
// memory and the surgery workload. The error counts are the ones both CLIs
// print for the same run.
func TestEntryPointsAgree(t *testing.T) {
	for _, tc := range []struct {
		workload string
		facade   func(d, rounds int, m tiscc.NoiseModel, opt tiscc.LogicalErrorOptions) (tiscc.LogicalErrorResult, error)
		errors   int
	}{
		{experiment.Memory, tiscc.EstimateDecodedLogicalErrorRate, 9},
		{experiment.Surgery, tiscc.EstimateDecodedSurgeryErrorRate, 28},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			m := tiscc.DepolarizingNoise(agreementP)
			fac, err := tc.facade(3, 0, m, agreementOpt)
			if err != nil {
				t.Fatal(err)
			}
			art, err := serve.CompileArtifact(serve.Key{Workload: tc.workload, Distance: 3,
				Model: serve.ModelDepolarizing, P: agreementP}.Normalize())
			if err != nil {
				t.Fatal(err)
			}
			opt := agreementOpt
			opt.Decoder = art.Graph
			srv, err := experiment.Estimate(art.Sched, art.Outcome, art.Reference, opt)
			if err != nil {
				t.Fatal(err)
			}
			c, err := experiment.Compile(experiment.Spec{Workload: tc.workload, Distance: 3, Model: m}, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := c.Run(experiment.RunOptions{Shots: agreementOpt.Shots, Seed: agreementOpt.Seed, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if srv != fac || pt.Result != fac {
				t.Fatalf("entry points disagree:\nfacade: %+v\nserve:  %+v\nrunner: %+v", fac, srv, pt.Result)
			}
			if fac.Errors != tc.errors || fac.Shots != 200 {
				t.Fatalf("%s d=3: %d/%d errors, want %d/200", tc.workload, fac.Errors, fac.Shots, tc.errors)
			}
		})
	}
}

// tableauErrors counts the tableau shots of [0, shots) whose logical
// outcome disagrees with the reference: the outcome formula over the
// shot's records (raw readout) or, with a decoder, the records decoded
// through the record oracle (DecodeOutcome).
func tableauErrors(t *testing.T, sched *noise.Schedule, outcome tiscc.Expr, g *tiscc.DecoderGraph, reference bool, shots int, seed int64, workers int) int {
	t.Helper()
	var errs atomic.Int64
	err := orqcs.RunShots(sched.Program(), sched.RunShot, shots, seed, workers, func(_ int, e *orqcs.Engine) error {
		got := outcome.Eval(e.Records())
		if g != nil {
			got = g.DecodeOutcome(e.Records())
		}
		if got != reference {
			errs.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return int(errs.Load())
}

// TestEstimateLogicalErrorMatchesTableau checks that the facade's
// lower-level EstimateLogicalError, which samples fault firings on the
// Pauli-frame engine and judges them in detector space, agrees exactly
// with the bit-sliced tableau for memory and surgery: raw or decoded, it
// counts the errors of the tableau's records judged shot by shot.
func TestEstimateLogicalErrorMatchesTableau(t *testing.T) {
	m := tiscc.DepolarizingNoise(agreementP)
	mem, err := tiscc.CompileMemoryExperiment(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	memSched := tiscc.CompileNoise(m, mem.Prog)
	memGraph, err := tiscc.CompileDecoder(mem, memSched)
	if err != nil {
		t.Fatal(err)
	}
	sur, err := tiscc.CompileSurgeryExperiment(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	surSched := tiscc.CompileNoise(m, sur.Prog)
	surGraph, err := tiscc.CompileSurgeryDecoder(sur, surSched)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		sched     *tiscc.FaultSchedule
		outcome   tiscc.Expr
		reference bool
		decoder   *tiscc.DecoderGraph
	}{
		{"memory-raw", memSched, mem.Outcome, mem.Reference, nil},
		{"memory-decoded", memSched, mem.Outcome, mem.Reference, memGraph},
		{"surgery-raw", surSched, sur.Outcome, sur.Reference, nil},
		{"surgery-decoded", surSched, sur.Outcome, sur.Reference, surGraph},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tiscc.LogicalErrorOptions{Shots: 300, Seed: 4, Workers: 2}
			if tc.decoder != nil {
				opt.Decoder = tc.decoder
			}
			got, err := tiscc.EstimateLogicalError(tc.sched, tc.outcome, tc.reference, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := tableauErrors(t, tc.sched, tc.outcome, tc.decoder, tc.reference, opt.Shots, opt.Seed, opt.Workers)
			if got.Shots != opt.Shots || got.Errors != want || got.RawFallbacks != 0 {
				t.Fatalf("estimate %d/%d errors (%d fallbacks), tableau record oracle %d/%d",
					got.Errors, got.Shots, got.RawFallbacks, want, opt.Shots)
			}
		})
	}
}

// TestRoundsConvention pins one rounds convention across every entry point:
// negative rounds are rejected, and 0 rounds means d rounds, so a 0-round
// estimate equals the d-round one.
func TestRoundsConvention(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs both CLIs")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"orqcs", "tiscc-bench"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	// cli runs a built CLI and parses the error count matched by re.
	cli := func(re *regexp.Regexp, name string, args ...string) (int, error) {
		out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
		if err != nil {
			return 0, fmt.Errorf("%v: %s", err, out)
		}
		match := re.FindSubmatch(out)
		if match == nil {
			return 0, fmt.Errorf("no error count in output:\n%s", out)
		}
		return strconv.Atoi(string(match[1]))
	}
	orqcsErrors := regexp.MustCompile(`\((\d+)/200 shots`)
	benchErrors := regexp.MustCompile(`\n  3\.0e-03\s+200\s+(\d+)\s`)
	facade := func(f func(d, rounds int, m tiscc.NoiseModel, opt tiscc.LogicalErrorOptions) (tiscc.LogicalErrorResult, error)) func(rounds int) (int, error) {
		return func(rounds int) (int, error) {
			res, err := f(3, rounds, tiscc.DepolarizingNoise(agreementP), agreementOpt)
			return res.Errors, err
		}
	}
	handler := serve.NewServer(serve.Config{}).Handler()
	entryPoints := []struct {
		name string
		run  func(rounds int) (errors int, err error)
	}{
		{"facade-raw", facade(tiscc.EstimateLogicalErrorRate)},
		{"facade-decoded", facade(tiscc.EstimateDecodedLogicalErrorRate)},
		{"facade-surgery", facade(tiscc.EstimateDecodedSurgeryErrorRate)},
		{"serve", func(rounds int) (int, error) {
			body := fmt.Sprintf(`{"distance": 3, "rounds": %d, "p": %g, "shots": 200, "seed": 1}`, rounds, agreementP)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			var resp serve.EstimateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return 0, err
			}
			if resp.Rounds != 3 {
				return 0, fmt.Errorf("response echoes rounds=%d, want 3", resp.Rounds)
			}
			return resp.Result.Errors, nil
		}},
		{"orqcs", func(rounds int) (int, error) {
			return cli(orqcsErrors, "orqcs", "-memory", fmt.Sprintf("3:%d", rounds),
				"-noise", "3e-3", "-decode", "-shots", "200")
		}},
		{"tiscc-bench", func(rounds int) (int, error) {
			return cli(benchErrors, "tiscc-bench", "-noise", "-decode", "-dlist", "3", "-plist", "3e-3",
				"-shots", "200", "-rounds", strconv.Itoa(rounds))
		}},
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			if _, err := ep.run(-1); err == nil {
				t.Fatal("rounds = -1 was accepted")
			}
			atD, err := ep.run(3)
			if err != nil {
				t.Fatal(err)
			}
			atZero, err := ep.run(0)
			if err != nil {
				t.Fatal(err)
			}
			if atZero != atD {
				t.Fatalf("rounds = 0 gave %d errors, rounds = d gave %d: 0 must mean d", atZero, atD)
			}
		})
	}
	// A 0-round memory experiment stays reachable through the long form.
	mem, err := tiscc.CompileMemoryExperiment(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Rounds != 0 {
		t.Fatalf("CompileMemoryExperiment(3, 0) compiled %d rounds", mem.Rounds)
	}
	sched := tiscc.CompileNoise(tiscc.DepolarizingNoise(agreementP), mem.Prog)
	if _, err := tiscc.EstimateLogicalError(sched, mem.Outcome, mem.Reference, agreementOpt); err != nil {
		t.Fatal(err)
	}
	if _, err := tiscc.CompileMemoryExperiment(3, -3); err == nil {
		t.Fatal("CompileMemoryExperiment accepted negative rounds")
	}
	if _, err := tiscc.EstimateDecodedLogicalErrorRate(3, -3, tiscc.DepolarizingNoise(agreementP), agreementOpt); err == nil ||
		!strings.Contains(err.Error(), "rounds must be ≥ 0") {
		t.Fatalf("negative rounds: err = %v, want the spec's rounds error", err)
	}
}
