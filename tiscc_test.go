package tiscc_test

import (
	"math"
	"strings"
	"testing"

	"tiscc"
)

// TestFacadeQuickstart exercises the documented public-API workflow.
func TestFacadeQuickstart(t *testing.T) {
	layout, err := tiscc.NewLayout(1, 1, 3, 3, 3, tiscc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile := tiscc.TileCoord{R: 0, C: 0}
	if _, err := layout.PrepareZ(tile); err != nil {
		t.Fatal(err)
	}
	if _, err := layout.Idle(tile); err != nil {
		t.Fatal(err)
	}
	circ := layout.Circuit()
	if err := tiscc.ValidateCircuit(layout.C.G, circ); err != nil {
		t.Fatal(err)
	}
	eng, err := tiscc.RunCircuit(circ, 1)
	if err != nil {
		t.Fatal(err)
	}
	tl, _ := layout.Tile(tile)
	lv, err := tl.LQ.LogicalValueOf(tiscc.LogicalZ)
	if err != nil {
		t.Fatal(err)
	}
	site, _ := layout.C.SitePauli(lv.Rep)
	v, err := eng.Expectation(site)
	if err != nil {
		t.Fatal(err)
	}
	if lv.Sign.Eval(eng.Records()) {
		v = -v
	}
	if v != 1 {
		t.Fatalf("⟨Z̄⟩ = %v", v)
	}
	est := tiscc.EstimateCircuit(circ, tiscc.DefaultParams())
	if est.Time <= 0 || est.Zones == 0 {
		t.Fatalf("bad estimate: %+v", est)
	}
}

// TestFacadeTextRoundTrip checks the circuit text interface through the
// public API (compile → serialize → parse → simulate).
func TestFacadeTextRoundTrip(t *testing.T) {
	layout, err := tiscc.NewLayout(1, 1, 2, 2, 1, tiscc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := layout.PrepareZ(tiscc.TileCoord{R: 0, C: 0}); err != nil {
		t.Fatal(err)
	}
	text := layout.Circuit().String()
	eng, err := tiscc.RunCircuitText(text, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Records()) == 0 {
		t.Fatal("no records")
	}
}

// TestFacadeTileFootprint checks the exported tile-footprint law.
func TestFacadeTileFootprint(t *testing.T) {
	if tiscc.TileHeight(5) != 6 || tiscc.TileWidth(4) != 6 {
		t.Fatal("tile footprint wrong")
	}
}

// TestFacadeProgram exercises the compile-once/run-many workflow through
// the public API: CompileProgram, RunProgram, EstimateBatch, RunShots.
func TestFacadeProgram(t *testing.T) {
	layout, err := tiscc.NewLayout(1, 1, 2, 2, 1, tiscc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile := tiscc.TileCoord{R: 0, C: 0}
	if _, err := layout.PrepareZ(tile); err != nil {
		t.Fatal(err)
	}
	circ := layout.Circuit()
	prog, err := tiscc.CompileProgram(circ)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumQubits() == 0 || prog.NumInstrs() == 0 {
		t.Fatalf("degenerate program: %d qubits, %d instrs", prog.NumQubits(), prog.NumInstrs())
	}
	if !prog.Clifford() {
		t.Fatal("PrepareZ compiled as non-Clifford")
	}
	eng := tiscc.RunProgram(prog, 3)
	ref, err := tiscc.RunCircuit(circ, 3)
	if err != nil {
		t.Fatal(err)
	}
	tl, _ := layout.Tile(tile)
	lv, err := tl.LQ.LogicalValueOf(tiscc.LogicalZ)
	if err != nil {
		t.Fatal(err)
	}
	site, _ := layout.C.SitePauli(lv.Rep)
	ve, _ := eng.Expectation(site)
	vr, _ := ref.Expectation(site)
	if ve != vr {
		t.Fatalf("program path %v vs wrapper path %v", ve, vr)
	}
	mean1, stderr1, err := tiscc.EstimateBatch(prog, site, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	mean4, stderr4, err := tiscc.EstimateBatch(prog, site, 8, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mean1 != mean4 || stderr1 != stderr4 {
		t.Fatalf("estimate depends on worker count: %v±%v vs %v±%v", mean1, stderr1, mean4, stderr4)
	}
	if mean1 < -1 || mean1 > 1 {
		t.Fatalf("mean %v outside [-1, 1]", mean1)
	}
	shotsSeen := 0
	if err := tiscc.RunShots(prog, 4, 3, 1, func(shot int, e *tiscc.Engine) error {
		shotsSeen++
		if len(e.Records()) == 0 {
			t.Error("shot produced no records")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if shotsSeen != 4 {
		t.Fatalf("visited %d shots, want 4", shotsSeen)
	}
}

// TestFacadeVerify runs a small verification through the facade.
func TestFacadeVerify(t *testing.T) {
	b, err := tiscc.VerifyStatePrep(3, 3, tiscc.Standard, 0 /* PrepZero */, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b[2] != 1 {
		t.Fatalf("⟨Z̄⟩ = %v", b[2])
	}
}

// TestFacadeNoise exercises the noise subsystem through the public API:
// model presets, fault-schedule compilation, single noisy shots, and the
// end-to-end logical-error-rate estimator with its determinism guarantee.
func TestFacadeNoise(t *testing.T) {
	if !tiscc.IdealNoise().IsIdeal() {
		t.Fatal("IdealNoise not ideal")
	}
	if err := tiscc.PaperNoise().Validate(); err != nil {
		t.Fatal(err)
	}

	mem, err := tiscc.CompileMemoryExperiment(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := tiscc.CompileNoise(tiscc.DepolarizingNoise(1e-2), mem.Prog)
	if sched.NumFaultSites() == 0 {
		t.Fatal("depolarizing schedule has no fault sites")
	}
	if e := tiscc.RunProgramNoisy(mem.Prog, tiscc.DepolarizingNoise(1e-2), 3); len(e.Records()) == 0 {
		t.Fatal("noisy shot produced no records")
	}

	opt := tiscc.LogicalErrorOptions{Shots: 150, Seed: 5}
	ref, err := tiscc.EstimateLogicalErrorRate(3, 1, tiscc.DepolarizingNoise(1e-2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Errors == 0 || ref.Rate <= 0 || ref.Rate > 1 {
		t.Fatalf("implausible logical error rate at p=1e-2: %v", ref)
	}
	if !(ref.WilsonLow <= ref.Rate && ref.Rate <= ref.WilsonHigh) {
		t.Fatalf("Wilson interval does not bracket the rate: %v", ref)
	}
	opt.Workers = 3
	again, err := tiscc.EstimateLogicalErrorRate(3, 1, tiscc.DepolarizingNoise(1e-2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if again != ref {
		t.Fatalf("worker count changed the result: %+v vs %+v", again, ref)
	}

	ideal, err := tiscc.EstimateLogicalErrorRate(3, 1, tiscc.IdealNoise(), tiscc.LogicalErrorOptions{Shots: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Errors != 0 {
		t.Fatalf("ideal noise produced logical errors: %v", ideal)
	}

	// A NaN model must be rejected, not compiled into an empty schedule
	// that reports p_L = 0.
	if res, err := tiscc.EstimateLogicalErrorRate(3, 3, tiscc.DepolarizingNoise(math.NaN()), tiscc.LogicalErrorOptions{Shots: 200, Seed: 5}); err == nil {
		t.Fatalf("NaN noise model accepted: %+v", res)
	}
}

// TestFacadeEstimateMany checks the multi-operator batch estimator and the
// dead-code-elimination peephole through the public API.
func TestFacadeEstimateMany(t *testing.T) {
	layout, err := tiscc.NewLayout(1, 1, 2, 2, 2, tiscc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile := tiscc.TileCoord{R: 0, C: 0}
	if _, err := layout.Inject(tile, tiscc.InjectT); err != nil {
		t.Fatal(err)
	}
	prog, err := tiscc.CompileProgram(layout.Circuit())
	if err != nil {
		t.Fatal(err)
	}
	tl, _ := layout.Tile(tile)
	var ops []tiscc.SitePauli
	for _, k := range []tiscc.LogicalKind{tiscc.LogicalX, tiscc.LogicalZ} {
		op, _ := layout.C.SitePauli(tl.LQ.GeoRep(k))
		ops = append(ops, op)
	}
	slim, err := prog.Eliminate(ops...)
	if err != nil {
		t.Fatal(err)
	}
	if slim.NumInstrs() > prog.NumInstrs() {
		t.Fatal("elimination grew the program")
	}
	means, stderrs, err := tiscc.EstimateMany(slim, ops, 500, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 2 || len(stderrs) != 2 {
		t.Fatalf("wrong result arity: %d means", len(means))
	}
	for j, m := range means {
		if m < -1.1 || m > 1.1 {
			t.Fatalf("op %d mean %v out of range", j, m)
		}
	}
}

// TestFacadeDecodedEstimate exercises the decoder subsystem through the
// public API: the decoded rate must undercut the raw readout rate, and the
// long-form pipeline (CompileMemoryExperiment → CompileNoise →
// CompileDecoder → EstimateLogicalError) must reproduce the one-liner
// bit for bit.
func TestFacadeDecodedEstimate(t *testing.T) {
	opt := tiscc.LogicalErrorOptions{Shots: 800, Seed: 9}
	m := tiscc.DepolarizingNoise(2e-3)
	raw, err := tiscc.EstimateLogicalErrorRate(3, 3, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tiscc.EstimateDecodedLogicalErrorRate(3, 3, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rate >= raw.Rate {
		t.Fatalf("decoded rate %v did not undercut raw rate %v", dec.Rate, raw.Rate)
	}
	mem, err := tiscc.CompileMemoryExperiment(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched := tiscc.CompileNoise(m, mem.Prog)
	g, err := tiscc.CompileDecoder(mem, sched)
	if err != nil {
		t.Fatal(err)
	}
	opt.Decoder = g
	manual, err := tiscc.EstimateLogicalError(sched, mem.Outcome, mem.Reference, opt)
	if err != nil {
		t.Fatal(err)
	}
	if manual != dec {
		t.Fatalf("long-form pipeline %+v differs from EstimateDecodedLogicalErrorRate %+v", manual, dec)
	}
}

// TestFacadeWriteDEM smoke-tests the detector-error-model export.
func TestFacadeWriteDEM(t *testing.T) {
	mem, err := tiscc.CompileMemoryExperiment(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := tiscc.CompileNoise(tiscc.DepolarizingNoise(1e-3), mem.Prog)
	var sb strings.Builder
	if err := tiscc.WriteDetectorErrorModel(&sb, mem, sched); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "error(") || !strings.Contains(out, "logical_observable L0") {
		t.Fatalf("DEM output missing required lines:\n%s", out)
	}
}

// TestFacadeDecodedSurgery exercises the lattice-surgery decoding entry
// points end to end: the decoded merge/split cycle estimate must undercut
// the raw joint-parity readout, and the long-form pipeline
// (CompileSurgeryExperiment → CompileNoise → CompileSurgeryDecoder →
// EstimateLogicalError) must reproduce EstimateDecodedSurgeryErrorRate
// bit for bit.
func TestFacadeDecodedSurgery(t *testing.T) {
	opt := tiscc.LogicalErrorOptions{Shots: 600, Seed: 9}
	m := tiscc.DepolarizingNoise(2e-3)
	dec, err := tiscc.EstimateDecodedSurgeryErrorRate(3, 2, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tiscc.CompileSurgeryExperiment(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := tiscc.CompileNoise(m, s.Prog)
	raw, err := tiscc.EstimateLogicalError(sched, s.Outcome, s.Reference, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rate >= raw.Rate {
		t.Fatalf("decoded surgery rate %v did not undercut raw rate %v", dec.Rate, raw.Rate)
	}
	g, err := tiscc.CompileSurgeryDecoder(s, sched)
	if err != nil {
		t.Fatal(err)
	}
	opt.Decoder = g
	manual, err := tiscc.EstimateLogicalError(sched, s.Outcome, s.Reference, opt)
	if err != nil {
		t.Fatal(err)
	}
	if manual != dec {
		t.Fatalf("long-form pipeline %+v differs from EstimateDecodedSurgeryErrorRate %+v", manual, dec)
	}
	if _, err := tiscc.ExtractSurgeryDetectors(s); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeWriteSurgeryDEM smoke-tests the surgery detector-error-model
// export.
func TestFacadeWriteSurgeryDEM(t *testing.T) {
	s, err := tiscc.CompileSurgeryExperiment(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := tiscc.CompileNoise(tiscc.DepolarizingNoise(1e-3), s.Prog)
	var sb strings.Builder
	if err := tiscc.WriteSurgeryDetectorErrorModel(&sb, s, sched); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "error(") || !strings.Contains(out, "logical_observable L0") {
		t.Fatalf("surgery DEM output missing required lines:\n%s", out)
	}
}
