package orqcs

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/core"
	"tiscc/internal/grid"
	"tiscc/internal/hardware"
	"tiscc/internal/pauli"
)

// buildTPlus returns a small non-Clifford circuit: T|+⟩ on one bare ion.
func buildTPlus(t testing.TB) (*circuit.Circuit, grid.Site) {
	t.Helper()
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	s := grid.Site{R: 0, C: 2}
	ion := b.MustAddIon(s)
	b.Prepare(ion)
	b.Hadamard(ion)
	b.Gate1(circuit.ZPi8, ion)
	return b.Build(), s
}

func TestCompileLowersMovementAway(t *testing.T) {
	c, s1, s2 := buildBell(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumQubits() != 2 {
		t.Fatalf("qubits = %d, want 2", p.NumQubits())
	}
	if !p.Clifford() || p.NumTGates() != 0 {
		t.Fatalf("bell circuit should compile as Clifford")
	}
	for i := 0; i < p.NumInstrs(); i++ {
		if p.instrs[i].Op == OpMeasureZ && p.instrs[i].Rec < 0 {
			t.Fatal("measure instruction lost its record index")
		}
	}
	if _, ok := p.finalAt[s1]; !ok {
		t.Fatalf("no qubit at %v", s1)
	}
	if _, ok := p.finalAt[s2]; !ok {
		t.Fatalf("no qubit at %v", s2)
	}
}

// TestCompiledMatchesRunOnce pins the compiled path to the reference
// single-shot semantics: same seed ⇒ same records and expectations.
func TestCompiledMatchesRunOnce(t *testing.T) {
	c, s1, s2 := buildBell(t)
	ref, err := RunOnce(c, 77)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	e := NewFromProgram(p)
	e.RunShot(77)
	op := SitePauli{s1: pauli.X, s2: pauli.X}
	vr, _ := ref.Expectation(op)
	ve, _ := e.Expectation(op)
	if vr != ve {
		t.Fatalf("expectation %v vs %v", vr, ve)
	}
	if len(ref.Records()) != len(e.Records()) {
		t.Fatalf("record tables differ in size")
	}
	for k, v := range ref.Records() {
		if e.Records()[k] != v {
			t.Fatalf("record %d: %v vs %v", k, v, e.Records()[k])
		}
	}
}

// TestEngineReuseMatchesFreshEngine verifies that RunShot fully resets the
// reused state: a recycled engine must reproduce a fresh engine bit for bit.
func TestEngineReuseMatchesFreshEngine(t *testing.T) {
	c, s := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTGates() != 1 {
		t.Fatalf("T gates = %d, want 1", p.NumTGates())
	}
	reused := NewFromProgram(p)
	op := SitePauli{s: pauli.X}
	for _, seed := range []int64{3, 99, 3, 42, 99} {
		reused.RunShot(seed)
		fresh := NewFromProgram(p)
		fresh.RunShot(seed)
		if reused.weight != fresh.weight {
			t.Fatalf("seed %d: weight %v vs %v", seed, reused.weight, fresh.weight)
		}
		vr, _ := reused.Expectation(op)
		vf, _ := fresh.Expectation(op)
		if vr != vf {
			t.Fatalf("seed %d: expectation %v vs %v", seed, vr, vf)
		}
		if len(reused.Records()) != len(fresh.Records()) {
			t.Fatalf("seed %d: record tables differ in size", seed)
		}
		for k, v := range fresh.Records() {
			if reused.Records()[k] != v {
				t.Fatalf("seed %d: record %d differs", seed, k)
			}
		}
	}
}

// shotTrace captures the observable outcome of one shot for comparison.
type shotTrace struct {
	weight float64
	recs   []int32 // sorted record ids with value true
}

func traceOf(e *Engine) shotTrace {
	tr := shotTrace{weight: e.weight}
	for id, v := range e.Records() {
		if v {
			tr.recs = append(tr.recs, id)
		}
	}
	sort.Slice(tr.recs, func(i, j int) bool { return tr.recs[i] < tr.recs[j] })
	return tr
}

func (tr shotTrace) equal(o shotTrace) bool {
	if tr.weight != o.weight || len(tr.recs) != len(o.recs) {
		return false
	}
	for i := range tr.recs {
		if tr.recs[i] != o.recs[i] {
			return false
		}
	}
	return true
}

// TestRunShotsDeterministicAcrossWorkers checks the tentpole reproducibility
// guarantee: same circuit + same seed ⇒ identical per-shot measurement
// records and weights for 1, 4 and 8 workers.
func TestRunShotsDeterministicAcrossWorkers(t *testing.T) {
	c, _ := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 64
	run := func(workers int) []shotTrace {
		traces := make([]shotTrace, shots)
		if err := RunShots(p, nil, shots, 12345, workers, func(i int, e *Engine) error {
			traces[i] = traceOf(e) // copies the per-shot state it keeps
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return traces
	}
	ref := run(1)
	for _, workers := range []int{4, 8} {
		got := run(workers)
		for i := range ref {
			if !ref[i].equal(got[i]) {
				t.Fatalf("workers=%d: shot %d trace diverged (%v vs %v)", workers, i, ref[i], got[i])
			}
		}
	}
}

// TestEstimateBatchDeterministicAcrossWorkers checks that the reduced mean
// and stderr are bit-identical for 1, 4 and 8 workers and across reruns.
func TestEstimateBatchDeterministicAcrossWorkers(t *testing.T) {
	c, s := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	op := SitePauli{s: pauli.X}
	const shots, seed = 200, 7
	refMean, refErr, err := estimateOne(p, op, shots, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		for rerun := 0; rerun < 2; rerun++ {
			m, se, err := estimateOne(p, op, shots, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if m != refMean || se != refErr {
				t.Fatalf("workers=%d rerun=%d: %v±%v, want %v±%v", workers, rerun, m, se, refMean, refErr)
			}
		}
	}
	// A different seed must (overwhelmingly) give a different sample.
	m2, _, err := estimateOne(p, op, shots, seed+1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == refMean {
		t.Logf("warning: distinct seeds produced identical means (possible but unlikely)")
	}
}

// TestEstimateBatchConverges sanity-checks the statistics on the known
// T|+⟩ state: ⟨X⟩ → cos(π/4) = 1/√2.
func TestEstimateBatchConverges(t *testing.T) {
	c, s := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	mean, stderr, err := estimateOne(p, SitePauli{s: pauli.X}, 40000, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt2
	if math.Abs(mean-want) > 5*stderr+0.01 {
		t.Fatalf("⟨X⟩ = %.4f ± %.4f, want %.4f", mean, stderr, want)
	}
}

// TestEstimateBatchErrors covers the error paths: empty site and bad shots.
func TestEstimateBatchErrors(t *testing.T) {
	c, _ := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := estimateOne(p, SitePauli{{R: 9, C: 9}: pauli.X}, 10, 1, 1); err == nil {
		t.Fatal("expected error for operator on empty site")
	}
	if _, _, err := estimateOne(p, SitePauli{}, 0, 1, 1); err == nil {
		t.Fatal("expected error for zero shots")
	}
}

// TestShotSeedStable pins the seed derivation so that stored verification
// results stay reproducible across releases.
func TestShotSeedStable(t *testing.T) {
	if ShotSeed(1, 0) == ShotSeed(1, 1) {
		t.Fatal("consecutive shots share a seed")
	}
	if ShotSeed(1, 5) == ShotSeed(2, 5) {
		t.Fatal("distinct base seeds share a shot seed")
	}
	if got := ShotSeed(1, 0); got != ShotSeed(1, 0) {
		t.Fatalf("ShotSeed not pure: %d", got)
	}
}

// TestEstimateManyMatchesEstimateBatch pins the multi-operator pass to the
// single-operator estimate (the facade's EstimateBatch): an operator's
// mean and standard error do not depend on the other operators of the
// pass (same shot seeds, same fold order).
func TestEstimateManyMatchesEstimateBatch(t *testing.T) {
	c, s := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	op := SitePauli{s: pauli.X}
	const shots, seed = 300, 19
	m1, e1, err := estimateOne(p, op, shots, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	ms, es, err := EstimateMany(p, nil, []SitePauli{{s: pauli.Z}, op}, shots, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ms[1] != m1 || es[1] != e1 {
		t.Fatalf("EstimateMany %v±%v vs the one-operator pass %v±%v", ms[1], es[1], m1, e1)
	}
}

// estimateOne is EstimateMany on one operator: the facade's EstimateBatch.
func estimateOne(p *Program, op SitePauli, shots int, seed int64, workers int) (mean, stderr float64, err error) {
	means, stderrs, err := EstimateMany(p, nil, []SitePauli{op}, shots, seed, workers)
	if err != nil {
		return 0, 0, err
	}
	return means[0], stderrs[0], nil
}

// TestEstimateManyDeterministicAcrossWorkers checks the streaming reduction:
// three operators over one shot stream, identical floats for every worker
// count and rerun.
func TestEstimateManyDeterministicAcrossWorkers(t *testing.T) {
	c, s := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	ops := []SitePauli{{s: pauli.X}, {s: pauli.Y}, {s: pauli.Z}}
	refM, refE, err := EstimateMany(p, nil, ops, 250, 23, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		for rerun := 0; rerun < 2; rerun++ {
			ms, es, err := EstimateMany(p, nil, ops, 250, 23, workers)
			if err != nil {
				t.Fatal(err)
			}
			for j := range ops {
				if ms[j] != refM[j] || es[j] != refE[j] {
					t.Fatalf("workers=%d op %d: %v±%v, want %v±%v", workers, j, ms[j], es[j], refM[j], refE[j])
				}
			}
		}
	}
}

// TestEstimateManyConverges checks the one-pass estimates against the known
// T|+⟩ Bloch vector: ⟨X⟩ = ⟨Y⟩ = 1/√2, ⟨Z⟩ = 0.
func TestEstimateManyConverges(t *testing.T) {
	c, s := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	ops := []SitePauli{{s: pauli.X}, {s: pauli.Y}, {s: pauli.Z}}
	ms, es, err := EstimateMany(p, nil, ops, 40000, 29, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{1 / math.Sqrt2, 1 / math.Sqrt2, 0} {
		if math.Abs(ms[j]-want) > 5*es[j]+0.01 {
			t.Fatalf("op %d: %.4f ± %.4f, want %.4f", j, ms[j], es[j], want)
		}
	}
}

func TestEstimateManyErrors(t *testing.T) {
	c, _ := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EstimateMany(p, nil, nil, 10, 1, 1); err == nil {
		t.Fatal("expected error for empty operator list")
	}
	if _, _, err := EstimateMany(p, nil, []SitePauli{{{R: 9, C: 9}: pauli.X}}, 10, 1, 1); err == nil {
		t.Fatal("expected error for operator on empty site")
	}
}

// buildDeadCode returns a circuit with a live ion (H|0⟩, queried in X) and a
// dead ion carrying gates — including a T gate — that can affect nothing.
func buildDeadCode(t testing.TB) (*circuit.Circuit, grid.Site) {
	t.Helper()
	g := grid.New(1, 2)
	b := hardware.NewBuilder(g, hardware.Default())
	live := grid.Site{R: 0, C: 2}
	dead := grid.Site{R: 0, C: 6}
	li := b.MustAddIon(live)
	di := b.MustAddIon(dead)
	b.Prepare(li)
	b.Hadamard(li)
	b.Prepare(di)
	b.Hadamard(di)
	b.Gate1(circuit.ZPi8, di) // dead T gate: pure sampling overhead
	b.Gate1(circuit.XPi4, di)
	return b.Build(), live
}

// TestEliminateDropsDeadGates checks the dead-code-elimination peephole:
// gates on qubits that are never measured and appear in no requested
// operator are dropped (dead T gates included, removing their γ² overhead),
// while estimates over the requested operator are unchanged.
func TestEliminateDropsDeadGates(t *testing.T) {
	c, live := buildDeadCode(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	op := SitePauli{live: pauli.X}
	slim, err := p.Eliminate(op)
	if err != nil {
		t.Fatal(err)
	}
	if slim.NumInstrs() >= p.NumInstrs() {
		t.Fatalf("no reduction: %d vs %d instrs", slim.NumInstrs(), p.NumInstrs())
	}
	if p.NumTGates() != 1 || slim.NumTGates() != 0 {
		t.Fatalf("dead T gate not eliminated: %d -> %d", p.NumTGates(), slim.NumTGates())
	}
	if slim.NumQubits() != p.NumQubits() {
		t.Fatal("elimination must not renumber qubits")
	}
	// ⟨X⟩ on H|0⟩ is 1. The full program still carries the dead T gate, so
	// its estimate is statistical (per-shot weights ±γ); the eliminated
	// program is Clifford and must be exact with zero variance.
	m, se, err := estimateOne(p, op, 400, 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 5*se+0.01 {
		t.Fatalf("full program ⟨X⟩ = %v ± %v, want ≈ 1", m, se)
	}
	m, se, err = estimateOne(slim, op, 50, 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 || se != 0 {
		t.Fatalf("eliminated program ⟨X⟩ = %v ± %v, want exactly 1 ± 0", m, se)
	}
	// The dead qubit's site is still addressable (qubit map shared).
	if _, ok := slim.finalAt[grid.Site{R: 0, C: 6}]; !ok {
		t.Fatal("final site map lost by elimination")
	}
	if _, err := p.Eliminate(SitePauli{{R: 9, C: 9}: pauli.X}); err == nil {
		t.Fatal("expected error for operator on empty site")
	}
}

// TestEliminateKeepsMeasurements checks that measurements are roots: every
// record of the original program survives elimination even with no
// requested operators, and a Prepare_Z kills liveness above it.
func TestEliminateKeepsMeasurements(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	ion := b.MustAddIon(grid.Site{R: 0, C: 2})
	b.Prepare(ion)
	b.Hadamard(ion) // dead: overwritten by the re-preparation below
	b.Prepare(ion)  // kills liveness above
	b.Gate1(circuit.XPi2, ion)
	rec := b.Measure(ion)
	p, err := Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	slim, err := p.Eliminate()
	if err != nil {
		t.Fatal(err)
	}
	if slim.NumInstrs() >= p.NumInstrs() {
		t.Fatalf("pre-preparation gates not eliminated: %d vs %d", slim.NumInstrs(), p.NumInstrs())
	}
	e := NewFromProgram(slim)
	e.RunShot(1)
	if v, ok := e.Records()[rec]; !ok || !v {
		t.Fatalf("record %d lost or wrong after elimination (got %v, ok=%v)", rec, v, ok)
	}
}

// TestCompileRecordsGaps checks the lowering-time idle-window bookkeeping
// that the noise model's dephasing probabilities are derived from.
func TestCompileRecordsGaps(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	ion := b.MustAddIon(grid.Site{R: 0, C: 2})
	b.Prepare(ion)
	const wait = 5_000_000 // 5 ms rest between preparation and gate
	b.WaitUntil(ion, b.Avail(ion)+wait)
	b.Gate1(circuit.XPi2, ion)
	b.Gate1(circuit.XPi2, ion) // back-to-back: no idle
	b.Measure(ion)
	p, err := Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInstrs() != 3 { // prep folded: 2 gates + measure
		t.Fatalf("instrs = %d, want 3", p.NumInstrs())
	}
	if got := p.Gap(0).Idle1; got != wait {
		t.Fatalf("gap before first gate = %d ns, want %d", got, wait)
	}
	if got := p.Gap(1).Idle1; got != 0 {
		t.Fatalf("gap between back-to-back gates = %d ns, want 0", got)
	}
}

// TestCompileCountsMoves checks that transport steps accumulate into the
// next instruction's gap (the transport-heating channel's input).
func TestCompileCountsMoves(t *testing.T) {
	g := grid.New(1, 2)
	b := hardware.NewBuilder(g, hardware.Default())
	start := grid.Site{R: 0, C: 2}
	ion := b.MustAddIon(start)
	b.Prepare(ion)
	path, err := g.Path(start, grid.Site{R: 0, C: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MoveAlong(ion, path); err != nil {
		t.Fatal(err)
	}
	b.Measure(ion)
	p, err := Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInstrs() != 1 { // prep folded, moves lowered away: just the measure
		t.Fatalf("instrs = %d, want 1", p.NumInstrs())
	}
	if mv := p.Gap(0).Moves1; mv < 1 {
		t.Fatalf("measure gap records %d transport steps, want ≥ 1", mv)
	}
}

// buildMemoryish compiles a small surface-code memory circuit (prep, two
// rounds of syndrome extraction, transversal readout): the rotation-heavy
// workload the fusion peephole targets.
func buildMemoryish(t testing.TB) *circuit.Circuit {
	t.Helper()
	c := core.NewCompiler(5, 6, hardware.Default())
	lq, err := c.NewLogicalQubit(3, 3, core.Cell{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(2); err != nil {
		t.Fatal(err)
	}
	if _, err := lq.TransversalMeasure(pauli.Z); err != nil {
		t.Fatal(err)
	}
	return c.Build()
}

// TestFuseRotationsIdenticalOutcomes checks the peephole's contract on a
// real syndrome-extraction circuit: the fused program is strictly shorter
// and every shot's record table is bit-identical to the original's.
func TestFuseRotationsIdenticalOutcomes(t *testing.T) {
	p, err := Compile(buildMemoryish(t))
	if err != nil {
		t.Fatal(err)
	}
	f := p.FuseRotations()
	if f.NumInstrs() >= p.NumInstrs() {
		t.Fatalf("fusion did not shorten the stream: %d → %d", p.NumInstrs(), f.NumInstrs())
	}
	if f.NumQubits() != p.NumQubits() || f.NumTGates() != p.NumTGates() {
		t.Fatal("fusion changed qubit or T-gate counts")
	}
	e1, e2 := NewFromProgram(p), NewFromProgram(f)
	for seed := int64(1); seed <= 6; seed++ {
		e1.RunShot(seed)
		e2.RunShot(seed)
		r1, r2 := e1.Records(), e2.Records()
		if len(r1) != len(r2) {
			t.Fatalf("seed %d: record counts differ: %d vs %d", seed, len(r1), len(r2))
		}
		for id, v := range r1 {
			if id < 0 {
				continue // virtual reset records need not align
			}
			if got, ok := r2[id]; !ok || got != v {
				t.Fatalf("seed %d: record %d = %v on original, %v (present %v) on fused", seed, id, v, got, ok)
			}
		}
	}
}

// TestFuseRotationsCancelsPairs: H·H between two measurements collapses to
// nothing.
func TestFuseRotationsCancelsPairs(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	ion := b.MustAddIon(grid.Site{R: 0, C: 2})
	b.Prepare(ion)
	b.Hadamard(ion)
	b.Hadamard(ion)
	b.Measure(ion)
	p, err := Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	f := p.FuseRotations()
	// Prep is constant-folded; H·H cancels; only the measurement survives.
	if f.NumInstrs() != 1 || f.Instructions()[0].Op != OpMeasureZ {
		t.Fatalf("fused stream = %v, want a lone measurement", f.Instructions())
	}
	// The cancelled rotations' idle time must reappear on the measurement's
	// gap so that compiled noise models keep charging the same dephasing.
	var idleOrig, idleFused int64
	for i := 0; i < p.NumInstrs(); i++ {
		idleOrig += p.Gap(i).Idle1 + p.Gap(i).Idle2
	}
	for i := 0; i < f.NumInstrs(); i++ {
		idleFused += f.Gap(i).Idle1 + f.Gap(i).Idle2
	}
	if idleFused != idleOrig {
		t.Fatalf("idle time not conserved: %d → %d", idleOrig, idleFused)
	}
}

// TestCliffordWordTable: every single-qubit Clifford element has a word of
// at most two rotations whose composition reproduces the element.
func TestCliffordWordTable(t *testing.T) {
	count := 0
	for id := 0; id < 36; id++ {
		w := cliffWords[id]
		if w == nil && id != cliffIdentity.id() {
			continue
		}
		count++
		if len(w) > 2 {
			t.Fatalf("element %d has word of length %d", id, len(w))
		}
		e := cliffIdentity
		for _, op := range w {
			e = compose(gateElem(op), e)
		}
		if e.id() != id {
			t.Fatalf("element %d: word %v composes to %d", id, w, e.id())
		}
	}
	if count != 24 {
		t.Fatalf("word table covers %d elements, want 24", count)
	}
}

// TestFuseRotationsPreservesEstimates: a non-Clifford circuit (T injection)
// keeps its T gates and its estimated expectations converge to the same
// value after fusion.
func TestFuseRotationsPreservesEstimates(t *testing.T) {
	c, s := buildTPlus(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	f := p.FuseRotations()
	if f.NumTGates() != p.NumTGates() {
		t.Fatalf("fusion changed T count: %d → %d", p.NumTGates(), f.NumTGates())
	}
	op := SitePauli{s: pauli.X}
	m1, _, err := estimateOne(p, op, 4000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := estimateOne(f, op, 4000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt2
	if math.Abs(m1-want) > 0.1 || math.Abs(m2-want) > 0.1 {
		t.Fatalf("estimates off ideal: original %v fused %v want %v", m1, m2, want)
	}
}

// TestSitePauliSitesSorted pins the deterministic support walk: Sites must
// return (row, column) order regardless of map iteration order.
func TestSitePauliSitesSorted(t *testing.T) {
	op := SitePauli{
		{R: 2, C: 1}: pauli.X,
		{R: 0, C: 4}: pauli.Z,
		{R: 0, C: 2}: pauli.Y,
		{R: 2, C: 0}: pauli.X,
	}
	want := []grid.Site{{R: 0, C: 2}, {R: 0, C: 4}, {R: 2, C: 0}, {R: 2, C: 1}}
	for i := 0; i < 32; i++ {
		got := op.Sites()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iteration %d: Sites() = %v, want %v", i, got, want)
			}
		}
	}
}

// TestEliminateMissingSiteErrorDeterministic checks that when an operator
// names several empty sites, Eliminate and PauliFor always blame the
// (row, column)-smallest one: error text must not depend on map iteration
// order.
func TestEliminateMissingSiteErrorDeterministic(t *testing.T) {
	c, _ := buildDeadCode(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		op := SitePauli{
			{R: 9, C: 9}: pauli.X,
			{R: 3, C: 7}: pauli.Z,
			{R: 9, C: 1}: pauli.Y,
		}
		_, err := p.Eliminate(op)
		if err == nil {
			t.Fatal("expected error for operators on empty sites")
		}
		if want := "no ion at site 3.7"; !strings.Contains(err.Error(), want) {
			t.Fatalf("iteration %d: Eliminate error %q does not name the smallest site (%s)", i, err, want)
		}
		_, err = p.PauliFor(op)
		if err == nil {
			t.Fatal("expected error for operators on empty sites")
		}
		if want := "no ion at site 3.7"; !strings.Contains(err.Error(), want) {
			t.Fatalf("iteration %d: PauliFor error %q does not name the smallest site (%s)", i, err, want)
		}
	}
}

// TestRunPool checks the shared worker pool: every item runs exactly once on
// a worker-owned state for any worker count, and the first error stops it.
func TestRunPool(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var mu sync.Mutex
		seen := map[int]int{}
		states := 0
		newState := func() *int {
			mu.Lock()
			defer mu.Unlock()
			states++
			return new(int)
		}
		err := RunPool(50, workers, newState, func(s *int, i int) error {
			*s++ // worker-owned: no lock needed
			mu.Lock()
			defer mu.Unlock()
			seen[i]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 50 || states != workers {
			t.Fatalf("workers=%d: %d items seen, %d states", workers, len(seen), states)
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
		boom := errors.New("boom")
		if err := RunPool(50, workers, newState, func(_ *int, i int) error {
			if i == 7 {
				return boom
			}
			return nil
		}); err != boom {
			t.Fatalf("workers=%d: err = %v, want the item's error", workers, err)
		}
	}
}

// TestOrderedFold checks the ordered fold: values fold in shot order
// whatever order they arrive in, early arrivals go through Hold and come
// back through Release, and a fold that returns true stops it for good.
func TestOrderedFold(t *testing.T) {
	var folded []int
	o := NewOrdered(func(shot, _, v int) bool {
		folded = append(folded, v)
		return shot == 5
	})
	held, released := 0, 0
	o.Hold = func(v int) int { held++; return v }
	o.Release = func(int) { released++ }
	var stops []bool
	for _, shot := range []int{2, 0, 1, 4, 3, 6, 5, 7} {
		stops = append(stops, o.Add(shot, 1, 10*shot))
	}
	if fmt.Sprint(folded) != "[0 10 20 30 40 50]" {
		t.Fatalf("folded %v, want shots 0..5 in order", folded)
	}
	if fmt.Sprint(stops) != "[false false false false false false true true]" {
		t.Fatalf("stop reports %v", stops)
	}
	if held != 3 || released != 2 {
		t.Fatalf("held %d, released %d; want 3 and 2 (shot 6 stays buffered past the stop)", held, released)
	}
}

// TestOrderedFoldSpans checks entries that cover several items (the
// estimator's 64-shot batches, the last one partial): they fold in item
// order and the fold sees each entry's first item and length.
func TestOrderedFoldSpans(t *testing.T) {
	var folded []string
	o := NewOrdered(func(first, n int, v string) bool {
		folded = append(folded, fmt.Sprintf("%s@%d+%d", v, first, n))
		return false
	})
	o.Add(128, 5, "c")
	o.Add(64, 64, "b")
	o.Add(0, 64, "a")
	if got := fmt.Sprint(folded); got != "[a@0+64 b@64+64 c@128+5]" {
		t.Fatalf("folded %v", got)
	}
	if o.Add(133, 1, "d") || len(folded) != 4 {
		t.Fatalf("entry after a partial batch not folded: %v", folded)
	}
}

// TestDecodeProgramRejectsUnorderedFoldedPreps pins that folded
// preparations decode only in ascending slot order, the order Compile,
// Eliminate and FuseRotations write them in and the noise compiler reads
// them in.
func TestDecodeProgramRejectsUnorderedFoldedPreps(t *testing.T) {
	p, err := Compile(buildMemoryish(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProgram(AppendProgram(nil, p)); err != nil {
		t.Fatalf("valid program: %v", err)
	}
	f := p.folded
	i := 1
	for i < len(f) && f[i].Slot == f[i-1].Slot {
		i++
	}
	if i == len(f) {
		t.Fatalf("all %d folded preparations share one slot", len(f))
	}
	f[i-1], f[i] = f[i], f[i-1]
	if _, err := DecodeProgram(AppendProgram(nil, p)); err == nil {
		t.Fatalf("folded slots %d, %d out of order: decode succeeded, want error", f[i-1].Slot, f[i].Slot)
	}
}

// TestCompileSparseSitesAllocation compiles a circuit whose two sites lie
// two billion rows and columns apart: per-site state is numbered by distinct
// site, so compiling allocates in proportion to the circuit, never to its
// coordinate range.
func TestCompileSparseSitesAllocation(t *testing.T) {
	c, err := circuit.Parse("Prepare_Z 0.0 t=0 d=10\nX_pi/4 2000000000.2000000000 t=0 d=10\n" +
		"ZZ 0.0 2000000000.2000000000 t=10 d=10\nMeasure_Z 2000000000.2000000000 t=20 d=10 m=0\n")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Compile(c)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("compiling a 4-event circuit allocated %d bytes", got)
	}
	if p.NumQubits() != 2 || p.NumRecords() != 1 {
		t.Fatalf("%d qubits, %d records; want 2 and 1", p.NumQubits(), p.NumRecords())
	}
	if _, err := p.PauliFor(SitePauli{{R: 2000000000, C: 2000000000}: pauli.Z}); err != nil {
		t.Fatal(err)
	}
}
