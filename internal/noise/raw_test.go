package noise_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/decoder"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// rawCase is one experiment of the raw-readout differential matrix.
type rawCase struct {
	name      string
	prog      *orqcs.Program
	outcome   expr.Expr
	reference bool
}

// rawCases are memory d=3,5,7,9,13 and surgery d=3,5 (rounds = d); -short
// keeps d ≤ 5.
func rawCases(t *testing.T) []rawCase {
	t.Helper()
	mems := []int{3, 5, 7, 9, 13}
	if testing.Short() {
		mems = []int{3, 5}
	}
	var cases []rawCase
	for _, d := range mems {
		mem, err := verify.MemoryExperiment(d, d, pauli.Z)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, rawCase{fmt.Sprintf("memory-d%d", d), mem.Prog, mem.Outcome, mem.Reference})
	}
	for _, d := range []int{3, 5} {
		s, err := verify.SurgeryExperiment(d, 1, d, 1, pauli.Z)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, rawCase{fmt.Sprintf("surgery-d%d", d), s.Prog, s.Outcome, s.Reference})
	}
	return cases
}

// observerFunc adapts a function to noise.ShotObserver.
type observerFunc func(p *noise.Planes, bad uint64)

func (f observerFunc) ObserveBatch(p *noise.Planes, bad uint64) { f(p, bad) }

// TestRawEstimateMatchesRecordOracle is the estimate-level oracle for the
// raw readout in detector space: the production raw estimate (fire-only
// batches read through the outcome formula's effect table) must count
// exactly the errors of the record oracle — the same shots' frame records,
// each read through the outcome formula (Expr.Eval) — at one and four
// workers, under uniform depolarizing and the paper's Table 5 noise. No
// raw batch walks the program: batches reach the observer with no check
// words (planes carry no records at all), and the sampler counts no
// collapse multiplication, while the record run of the same shots does.
func TestRawEstimateMatchesRecordOracle(t *testing.T) {
	const shots, seed = 1000, 5
	models := []noise.Model{noise.Depolarizing(1e-3), noise.PaperTable5(hardware.Default())}
	for _, c := range rawCases(t) {
		for _, m := range models {
			t.Run(c.name+"/"+m.Name, func(t *testing.T) {
				sched := noise.Compile(m, c.prog)
				want := recordOracleErrors(t, c, sched, shots, seed)
				for _, workers := range []int{1, 4} {
					sim, err := frame.New(c.prog, sched)
					if err != nil {
						t.Fatal(err)
					}
					var withWords atomic.Int64
					obs := observerFunc(func(p *noise.Planes, _ uint64) {
						if len(p.Dets) != 0 {
							withWords.Add(1)
						}
					})
					res, err := noise.EstimateLogicalError(sched, c.outcome, c.reference,
						noise.Options{Shots: shots, Seed: seed, Workers: workers, Sampler: sim, Observer: obs})
					if err != nil {
						t.Fatal(err)
					}
					if res.Shots != shots || res.Errors != want {
						t.Fatalf("workers=%d: raw estimate %d/%d errors, record oracle %d/%d", workers, res.Errors, res.Shots, want, shots)
					}
					if n := withWords.Load(); n != 0 {
						t.Fatalf("workers=%d: %d raw batches carried check words", workers, n)
					}
					met := sim.Metrics()
					if met.Counter("shots") != shots || met.Counter("collapse_mults") != 0 {
						t.Fatalf("workers=%d: sampler counted %d shots and %d collapse multiplications, want %d and 0",
							workers, met.Counter("shots"), met.Counter("collapse_mults"), shots)
					}
				}
			})
		}
	}
}

// recordOracleErrors counts the shots of [0, shots) whose frame records,
// read through the outcome formula one by one, disagree with the reference
// outcome. The record run must multiply collapse rows somewhere and see
// some error, or the comparison would prove little.
func recordOracleErrors(t *testing.T, c rawCase, sched *noise.Schedule, shots int, seed int64) int {
	t.Helper()
	sim, err := frame.New(c.prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	b := sim.NewBatch()
	errs := 0
	for first := 0; first < shots; first += 64 {
		b.Run(first, min(64, shots-first), seed)
		for lane := range b.Planes().N {
			if c.outcome.Eval(b.Records(lane)) != c.reference {
				errs++
			}
		}
	}
	if sim.Metrics().Counter("collapse_mults") == 0 || errs == 0 {
		t.Fatalf("the record run multiplied %d collapse rows and saw %d errors", sim.Metrics().Counter("collapse_mults"), errs)
	}
	return errs
}

// TestEstimateRejectsRandomOutcome pins the determinism check of the
// effect pass: a raw estimate whose outcome formula reads a lone random
// measurement (Z on |+⟩) is an error — its noiseless value is a coin, so
// no fault-effect table can say when it is wrong — instead of a rate near
// zero. Every memory and surgery outcome and detector passes the check:
// CompileGraph runs it over the detectors and the observable.
func TestEstimateRejectsRandomOutcome(t *testing.T) {
	c, err := circuit.Parse("Prepare_Z 0.1\nY_pi/4 0.1\nMeasure_Z 0.1 m=0\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(1e-3), prog)
	res, err := noise.EstimateLogicalError(sched, expr.FromID(0), false, withFrame(t, sched, noise.Options{Shots: 2000, Seed: 1}))
	if err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("got %+v, %v; want a nondeterministic-outcome error", res, err)
	}
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		for _, d := range []int{3, 5} {
			mem, err := verify.MemoryExperiment(d, d, basis)
			if err != nil {
				t.Fatal(err)
			}
			dets, err := decoder.Extract(mem)
			if err != nil {
				t.Fatal(err)
			}
			checkDeterministic(t, fmt.Sprintf("memory-d%d-%v", d, basis), dets, mem.Prog, mem.Outcome)
			s, err := verify.SurgeryExperiment(d, 1, d, 1, basis)
			if err != nil {
				t.Fatal(err)
			}
			if dets, err = decoder.ExtractSurgery(s); err != nil {
				t.Fatal(err)
			}
			checkDeterministic(t, fmt.Sprintf("surgery-d%d-%v", d, basis), dets, s.Prog, s.Outcome)
		}
	}
}

// checkDeterministic fails unless the outcome alone and the detectors with
// their observable pass the effect pass's determinism check.
func checkDeterministic(t *testing.T, name string, dets *decoder.Detectors, prog *orqcs.Program, outcome expr.Expr) {
	t.Helper()
	sched := noise.Compile(noise.Depolarizing(1e-3), prog)
	if _, err := noise.CompileEffects(sched, nil, outcome.IDs); err != nil {
		t.Fatalf("%s outcome: %v", name, err)
	}
	if _, err := decoder.CompileGraph(dets, sched); err != nil {
		t.Fatalf("%s detectors: %v", name, err)
	}
}

// BenchmarkRawOutcomeEffects times the once-per-call set-up of a raw
// estimate on memory d=13 under depolarizing 1e-3: the backward pass of the
// outcome formula alone (CompileEffects with no checks).
func BenchmarkRawOutcomeEffects(b *testing.B) {
	mem, err := verify.MemoryExperiment(13, 13, pauli.Z)
	if err != nil {
		b.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := noise.CompileEffects(sched, nil, mem.Outcome.IDs); err != nil {
			b.Fatal(err)
		}
	}
}
