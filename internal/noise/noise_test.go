package noise_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/grid"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// withFrame returns opt with the frame sampler of s as its record source.
func withFrame(t testing.TB, s *noise.Schedule, opt noise.Options) noise.Options {
	t.Helper()
	sim, err := frame.New(s.Program(), s)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sampler = sim
	return opt
}

// singleQubitMemory builds a one-ion circuit: Prepare_Z, then gates pairs of
// X_{π/2} (an identity in pairs), then Measure_Z. It is the analytic test
// bench: under pure gate depolarizing the measured bit flips with a
// closed-form probability.
func singleQubitMemory(t testing.TB, gates int) (*orqcs.Program, int32) {
	t.Helper()
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	ion := b.MustAddIon(grid.Site{R: 0, C: 2})
	b.Prepare(ion)
	for i := 0; i < gates; i++ {
		b.Gate1(circuit.XPi2, ion)
	}
	rec := b.Measure(ion)
	p, err := orqcs.Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return p, rec
}

func TestIdealScheduleIsEmpty(t *testing.T) {
	p, rec := singleQubitMemory(t, 4)
	s := noise.Compile(noise.Ideal(), p)
	if s.NumFaultSites() != 0 {
		t.Fatalf("ideal schedule has %d fault sites, want 0", s.NumFaultSites())
	}
	// A noisy run under the empty schedule must reproduce the noiseless run.
	noisy := orqcs.NewFromProgram(p)
	s.RunShot(noisy, 7)
	ref := orqcs.NewFromProgram(p)
	ref.RunShot(7)
	if noisy.Records()[rec] != ref.Records()[rec] {
		t.Fatal("ideal schedule changed a measurement record")
	}
	res, err := noise.EstimateLogicalError(s, expr.FromID(rec), false, withFrame(t, s, noise.Options{Shots: 100, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Rate != 0 {
		t.Fatalf("ideal run produced errors: %v", res)
	}
}

func TestScheduleFaultSiteLayout(t *testing.T) {
	p, _ := singleQubitMemory(t, 4)
	// Prepare is first-touch-folded, so the stream is 4 gates + 1 measure.
	if p.NumInstrs() != 5 {
		t.Fatalf("instrs = %d, want 5", p.NumInstrs())
	}
	m := noise.Model{P1: 1e-3, PMeas: 1e-3}
	s := noise.Compile(m, p)
	// One depol per gate + one flip before the measure.
	if s.NumFaultSites() != 5 {
		t.Fatalf("fault sites = %d, want 5", s.NumFaultSites())
	}
	if s.Model().P1 != m.P1 || s.Program() != p {
		t.Fatal("schedule lost its model or program")
	}
}

// TestFiredFaultsDeterministic pins the per-seed fault schedule: identical
// seeds replay bit-identical schedules, distinct seeds diverge.
func TestFiredFaultsDeterministic(t *testing.T) {
	p, _ := singleQubitMemory(t, 40)
	s := noise.Compile(noise.Depolarizing(0.3), p)
	a := s.FiredFaults(42, nil)
	b := s.FiredFaults(42, nil)
	if len(a) == 0 {
		t.Fatal("no faults fired at p=0.3 over 40 gates (suspicious)")
	}
	if len(a) != len(b) {
		t.Fatalf("replayed schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := s.FiredFaults(43, nil)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical fault schedules")
	}
}

// TestDepolarizingClosedForm checks the estimator against the analytic
// error rate of a single-qubit memory: m gates each followed by
// depolarizing(p) flip the Z readout with probability (1 − (1 − 4p/3)^m)/2.
func TestDepolarizingClosedForm(t *testing.T) {
	const (
		gates = 20
		p     = 0.02
		shots = 20000
	)
	prog, rec := singleQubitMemory(t, gates)
	s := noise.Compile(noise.Model{P1: p}, prog)
	res, err := noise.EstimateLogicalError(s, expr.FromID(rec), false, withFrame(t, s, noise.Options{Shots: shots, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - math.Pow(1-4*p/3, gates)) / 2
	if diff := math.Abs(res.Rate - want); diff > 5*res.StdErr+1e-3 {
		t.Fatalf("rate %.4f, closed form %.4f (diff %.4f > 5σ=%.4f)", res.Rate, want, diff, 5*res.StdErr)
	}
	if res.WilsonLow > want || want > res.WilsonHigh {
		t.Errorf("closed form %.4f outside 95%% Wilson CI [%.4f, %.4f]", want, res.WilsonLow, res.WilsonHigh)
	}
}

// TestMeasurementFlipRate checks the measurement-flip channel in isolation:
// prep + measure with PMeas = p errs at exactly rate p.
func TestMeasurementFlipRate(t *testing.T) {
	const pm = 0.05
	prog, rec := singleQubitMemory(t, 0)
	s := noise.Compile(noise.Model{PMeas: pm}, prog)
	res, err := noise.EstimateLogicalError(s, expr.FromID(rec), false, withFrame(t, s, noise.Options{Shots: 20000, Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rate-pm) > 5*res.StdErr+1e-3 {
		t.Fatalf("measurement flip rate %.4f, want %.4f", res.Rate, pm)
	}
}

// TestFoldedPrepStillErrs checks that constant-folded first-touch
// preparations keep their SPAM channel: prep + measure with PPrep = p errs
// at rate p even though the Prepare_Z never appears in the lowered stream.
func TestFoldedPrepStillErrs(t *testing.T) {
	const pp = 0.05
	prog, rec := singleQubitMemory(t, 0)
	if prog.NumInstrs() != 1 || len(prog.FoldedPreps()) != 1 {
		t.Fatalf("expected the prep to fold away (instrs=%d, folded=%d)",
			prog.NumInstrs(), len(prog.FoldedPreps()))
	}
	s := noise.Compile(noise.Model{PPrep: pp}, prog)
	if s.NumFaultSites() != 1 {
		t.Fatalf("fault sites = %d, want 1 (the folded prep)", s.NumFaultSites())
	}
	res, err := noise.EstimateLogicalError(s, expr.FromID(rec), false, withFrame(t, s, noise.Options{Shots: 20000, Seed: 15}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rate-pp) > 5*res.StdErr+1e-3 {
		t.Fatalf("preparation flip rate %.4f, want %.4f", res.Rate, pp)
	}
}

// TestIdleDephasingHarmlessOnZ checks the dephasing channel's basis: pure Z
// noise (arbitrarily strong) cannot flip a Z-basis memory.
func TestIdleDephasingHarmlessOnZ(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	ion := b.MustAddIon(grid.Site{R: 0, C: 2})
	b.Prepare(ion)
	b.WaitUntil(ion, b.Avail(ion)+10_000_000) // 10 ms idle window
	b.Gate1(circuit.ZPi2, ion)                // instruction carrying the idle gap
	rec := b.Measure(ion)
	prog, err := orqcs.Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	s := noise.Compile(noise.Model{T2: 1e6}, prog) // T2 ≪ idle ⇒ p_Z ≈ 1/2
	if s.NumFaultSites() == 0 {
		t.Fatal("idle window produced no dephasing fault site")
	}
	res, err := noise.EstimateLogicalError(s, expr.FromID(rec), false, withFrame(t, s, noise.Options{Shots: 2000, Seed: 11}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("Z dephasing flipped a Z-basis readout %d times", res.Errors)
	}
}

// TestLogicalErrorDeterministicAcrossWorkers checks the reproducibility
// guarantee of the noisy path: same seed ⇒ identical Result for 1, 4 and 8
// workers and across reruns.
func TestLogicalErrorDeterministicAcrossWorkers(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 2, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	s := noise.Compile(noise.Depolarizing(3e-3), mem.Prog)
	ref, err := noise.EstimateLogicalError(s, mem.Outcome, mem.Reference, withFrame(t, s, noise.Options{Shots: 200, Seed: 21, Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Errors == 0 {
		t.Fatal("no logical errors at p=3e-3 over 200 shots (suspicious)")
	}
	for _, workers := range []int{1, 4, 8} {
		for rerun := 0; rerun < 2; rerun++ {
			got, err := noise.EstimateLogicalError(s, mem.Outcome, mem.Reference, withFrame(t, s, noise.Options{Shots: 200, Seed: 21, Workers: workers}))
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("workers=%d rerun=%d: %+v, want %+v", workers, rerun, got, ref)
			}
		}
	}
}

// TestNoisyShotsDeterministicRecords compares full per-shot record tables
// across worker counts (bit-identical fault schedules ⇒ bit-identical
// records).
func TestNoisyShotsDeterministicRecords(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 1, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	s := noise.Compile(noise.PaperTable5(hardware.Default()), mem.Prog)
	const shots = 32
	run := func(workers int) []map[int32]bool {
		out := make([]map[int32]bool, shots)
		if err := orqcs.RunShots(s.Program(), s.RunShot, shots, 77, workers, func(i int, e *orqcs.Engine) error {
			cp := make(map[int32]bool, len(e.Records()))
			for k, v := range e.Records() {
				cp[k] = v
			}
			out[i] = cp
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	got := run(6)
	for i := range ref {
		if len(ref[i]) != len(got[i]) {
			t.Fatalf("shot %d: record table sizes differ", i)
		}
		for k, v := range ref[i] {
			if got[i][k] != v {
				t.Fatalf("shot %d: record %d differs across worker counts", i, k)
			}
		}
	}
}

// TestEarlyStopping checks that a loose target stops before the shot budget
// and that the early-stopped result is a prefix of the full run.
func TestEarlyStopping(t *testing.T) {
	prog, rec := singleQubitMemory(t, 10)
	s := noise.Compile(noise.Model{P1: 0.05}, prog)
	full, err := noise.EstimateLogicalError(s, expr.FromID(rec), false, withFrame(t, s, noise.Options{Shots: 10000, Seed: 13}))
	if err != nil {
		t.Fatal(err)
	}
	early, err := noise.EstimateLogicalError(s, expr.FromID(rec), false,
		withFrame(t, s, noise.Options{Shots: 10000, Seed: 13, TargetStdErr: 0.02, Batch: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if early.Shots >= full.Shots {
		t.Fatalf("early stopping did not stop early (%d shots)", early.Shots)
	}
	if early.Shots%100 != 0 {
		t.Fatalf("stopped off a batch boundary: %d", early.Shots)
	}
	if noise.WilsonStdErr(early.Errors, early.Shots) > 0.02 {
		t.Fatalf("stopped above target: %+v", early)
	}
	// Prefix property: recounting the first early.Shots shots of the full
	// sequence must reproduce the early result exactly.
	recount, err := noise.EstimateLogicalError(s, expr.FromID(rec), false, withFrame(t, s, noise.Options{Shots: early.Shots, Seed: 13}))
	if err != nil {
		t.Fatal(err)
	}
	if recount.Errors != early.Errors {
		t.Fatalf("early-stopped run is not a prefix: %d vs %d errors", early.Errors, recount.Errors)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := noise.Wilson(0, 100)
	if lo != 0 || hi <= 0 || hi > 0.1 {
		t.Fatalf("Wilson(0, 100) = [%v, %v]", lo, hi)
	}
	lo, hi = noise.Wilson(50, 100)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Fatalf("Wilson(50, 100) = [%v, %v] does not bracket 0.5", lo, hi)
	}
	if lo2, hi2 := noise.Wilson(500, 1000); hi2-lo2 >= hi-lo {
		t.Fatal("Wilson interval did not shrink with n")
	}
}

func TestModelValidateAndPresets(t *testing.T) {
	ideal := func(m noise.Model) bool { m.Name = ""; return m == noise.Model{} }
	if !ideal(noise.Ideal()) {
		t.Fatal("Ideal() not ideal")
	}
	if ideal(noise.Depolarizing(1e-3)) {
		t.Fatal("Depolarizing(1e-3) claims ideal")
	}
	if err := noise.Depolarizing(1e-3).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := noise.PaperTable5(hardware.Default()).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (noise.Model{P2: 1.5}).Validate(); err == nil {
		t.Fatal("P2 = 1.5 passed validation")
	}
	if err := (noise.Model{T2: -1}).Validate(); err == nil {
		t.Fatal("negative T2 passed validation")
	}
	// NaN compares false both ways; Compile would drop every fault of it.
	if err := noise.Depolarizing(math.NaN()).Validate(); err == nil {
		t.Fatal("Depolarizing(NaN) passed validation")
	}
	if err := (noise.Model{PMove: math.NaN()}).Validate(); err == nil {
		t.Fatal("PMove = NaN passed validation")
	}
	tab := noise.PaperTable5(hardware.Default())
	tab.T2 = math.NaN()
	if err := tab.Validate(); err == nil {
		t.Fatal("T2 = NaN passed validation")
	}
}

// TestLogicalErrorRateGrowsWithP sanity-checks monotonicity on a real memory
// experiment: more physical noise ⇒ more logical errors.
func TestLogicalErrorRateGrowsWithP(t *testing.T) {
	mem, err := verify.MemoryExperiment(3, 2, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	var last float64 = -1
	for _, p := range []float64{1e-3, 1e-2} {
		s := noise.Compile(noise.Depolarizing(p), mem.Prog)
		res, err := noise.EstimateLogicalError(s, mem.Outcome, mem.Reference, withFrame(t, s, noise.Options{Shots: 600, Seed: 17}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rate <= last {
			t.Fatalf("rate not increasing with p: %v after %v", res.Rate, last)
		}
		last = res.Rate
	}
}

// tGateCircuits are two one-T-gate programs: a two-ion circuit read out as
// m0 ⊕ m1, and the five-event T rotation of |0⟩ read out as m0, whose true
// flip probability is (1 − 1/√2)/2 ≈ 0.146 while an unweighted count of its
// quasi-probability branches reads ≈ 0.396.
var tGateCircuits = []struct {
	name, text string
	outcome    expr.Expr
}{
	{"two-ion", `Prepare_Z 0.2 t=0 d=10000
Prepare_Z 0.3 t=0 d=10000
Y_pi/4 0.2 t=10000 d=10000
Measure_Z 0.3 t=10000 d=120000 m=1
Z_pi/8 0.2 t=20000 d=3000
Y_-pi/4 0.2 t=23000 d=10000
Measure_Z 0.2 t=33000 d=120000 m=0
`, expr.FromID(0).Xor(expr.FromID(1))},
	{"five-event", `Prepare_Z 0.1
Y_pi/4 0.1
Z_pi/8 0.1
Y_-pi/4 0.1
Measure_Z 0.1 m=0
`, expr.FromID(0)},
}

// refusedSampler claims a schedule and fails the test if it is ever asked
// for planes.
type refusedSampler struct {
	t testing.TB
	s *noise.Schedule
}

func (r refusedSampler) SampleFired(int, int64, int, func(*noise.Planes) error) error {
	r.t.Error("the estimator sampled a T-gate program")
	return nil
}

func (r refusedSampler) Schedule() *noise.Schedule { return r.s }

// TestEstimateRejectsTGates pins that the estimator refuses programs with T
// gates instead of counting their weighted quasi-probability records as
// errors, with or without a sampler and under any noise.
func TestEstimateRejectsTGates(t *testing.T) {
	for _, tc := range tGateCircuits {
		t.Run(tc.name, func(t *testing.T) {
			c, err := circuit.Parse(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := orqcs.Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Clifford() {
				t.Fatal("test program lost its T gate")
			}
			for _, m := range []noise.Model{noise.Ideal(), noise.Depolarizing(1e-2)} {
				s := noise.Compile(m, prog)
				for _, sampler := range []noise.Sampler{nil, refusedSampler{t, s}} {
					res, err := noise.EstimateLogicalError(s, tc.outcome, false, noise.Options{Shots: 20000, Seed: 1, Sampler: sampler})
					if err == nil || !strings.Contains(err.Error(), "T gates") {
						t.Fatalf("model %+v, sampler %T: got %v, %v; want a T-gate error", m, sampler, res, err)
					}
				}
			}
		})
	}
}

// TestEstimateSamplerOptionErrors pins the Sampler OptionErrors: a missing
// sampler, and samplers compiled for another schedule — noiseless, another
// schedule of the same program, or a d=5 memory sampler handed a d=3 memory
// schedule (its firings index another fault table).
func TestEstimateSamplerOptionErrors(t *testing.T) {
	mem3, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	mem5, err := verify.MemoryExperiment(5, 5, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	s := noise.Compile(noise.Depolarizing(1e-3), mem3.Prog)
	sim := func(prog *orqcs.Program, s *noise.Schedule) noise.Sampler {
		f, err := frame.New(prog, s)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		name    string
		sampler noise.Sampler
	}{
		{"nil", nil},
		{"noiseless", sim(mem3.Prog, nil)},
		{"other-schedule", sim(mem3.Prog, noise.Compile(noise.Depolarizing(1e-3), mem3.Prog))},
		{"d=5-memory", sim(mem5.Prog, noise.Compile(noise.Depolarizing(1e-3), mem5.Prog))},
	} {
		res, err := noise.EstimateLogicalError(s, mem3.Outcome, mem3.Reference, noise.Options{Shots: 64, Seed: 1, Sampler: tc.sampler})
		var oe *noise.OptionError
		if !errors.As(err, &oe) || oe.Field != "Sampler" {
			t.Fatalf("%s: got %v, %v; want an OptionError on Sampler", tc.name, res, err)
		}
	}
	if _, err := noise.EstimateLogicalError(s, mem3.Outcome, mem3.Reference, withFrame(t, s, noise.Options{Shots: 64, Seed: 1})); err != nil {
		t.Fatalf("the schedule's own frame sampler was refused: %v", err)
	}
}
