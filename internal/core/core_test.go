package core

import (
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/hardware"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// newTestCompiler sizes a grid for a single patch of the given distances.
func newTestCompiler(t *testing.T, dx, dz int) *Compiler {
	t.Helper()
	return NewCompiler(dz+2, dx+3, hardware.Default())
}

func newTestPatch(t *testing.T, c *Compiler, dx, dz int) *LogicalQubit {
	t.Helper()
	lq, err := c.NewLogicalQubit(dx, dz, Cell{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return lq
}

// logicalExp compiles nothing further; it runs the accumulated circuit and
// returns the simulator expectation of a logical operator with all
// compiler-provided sign corrections applied.
func logicalExp(t *testing.T, c *Compiler, lq *LogicalQubit, k LogicalKind, seed int64) float64 {
	t.Helper()
	lv, err := lq.LogicalValueOf(k)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := orqcs.RunOnce(c.Build(), seed)
	if err != nil {
		t.Fatal(err)
	}
	site, neg := c.SitePauli(lv.Rep)
	v, err := eng.Expectation(site)
	if err != nil {
		t.Fatal(err)
	}
	if neg {
		v = -v
	}
	if lv.Sign.Eval(eng.Records()) {
		v = -v
	}
	return v
}

func TestPatchConstructionAllArrangements(t *testing.T) {
	for _, dz := range []int{2, 3, 4, 5} {
		for _, dx := range []int{2, 3, 4, 5} {
			for _, arr := range []Arrangement{Standard, Rotated, Flipped, RotatedFlipped} {
				c := newTestCompiler(t, dx, dz)
				lq := newTestPatch(t, c, dx, dz)
				lq.Arr = arr
				lq.invalidateGeometry()
				if err := lq.CheckCode(); err != nil {
					t.Errorf("dx=%d dz=%d %s: %v", dx, dz, arr.Name(), err)
				}
			}
		}
	}
}

func TestPatchConstructionLarge(t *testing.T) {
	for _, d := range []int{7, 9} {
		c := newTestCompiler(t, d, d)
		lq := newTestPatch(t, c, d, d)
		if err := lq.CheckCode(); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
	}
}

func TestStabilizerCount(t *testing.T) {
	// A valid patch has exactly n−1 independent stabilizers; for the
	// surface code the plaquette count equals n−1 as well.
	for _, dims := range [][2]int{{3, 3}, {5, 5}, {2, 4}, {4, 3}, {5, 2}} {
		dx, dz := dims[0], dims[1]
		c := newTestCompiler(t, dx, dz)
		lq := newTestPatch(t, c, dx, dz)
		if got, want := len(lq.Plaquettes()), dx*dz-1; got != want {
			t.Errorf("dx=%d dz=%d: plaquettes = %d, want %d", dx, dz, got, want)
		}
	}
}

func TestDistancesFollowArrangement(t *testing.T) {
	c := newTestCompiler(t, 5, 3)
	lq := newTestPatch(t, c, 5, 3)
	if lq.DX() != 5 || lq.DZ() != 3 {
		t.Fatalf("standard: dx=%d dz=%d", lq.DX(), lq.DZ())
	}
	lq.Arr = Rotated
	lq.invalidateGeometry()
	// After a transversal Hadamard, Z̄ runs horizontally: dz = 5.
	if lq.DX() != 3 || lq.DZ() != 5 {
		t.Fatalf("rotated: dx=%d dz=%d", lq.DX(), lq.DZ())
	}
}

func TestLogicalRepsWeights(t *testing.T) {
	c := newTestCompiler(t, 5, 3)
	lq := newTestPatch(t, c, 5, 3)
	if w := lq.geoRep(LogicalZ).Weight(); w != 3 {
		t.Errorf("Z̄ weight = %d, want 3", w)
	}
	if w := lq.geoRep(LogicalX).Weight(); w != 5 {
		t.Errorf("X̄ weight = %d, want 5", w)
	}
	y := lq.geoRep(LogicalY)
	if !y.Hermitian() {
		t.Error("Ȳ not Hermitian")
	}
	if w := y.Weight(); w != 3+5-1 {
		t.Errorf("Ȳ weight = %d, want 7", w)
	}
}

func TestPrepareZGivesLogicalZero(t *testing.T) {
	for _, d := range []int{2, 3} {
		c := newTestCompiler(t, d, d)
		lq := newTestPatch(t, c, d, d)
		lq.TransversalPrepareZ()
		if _, err := lq.Idle(1); err != nil {
			t.Fatal(err)
		}
		if v := logicalExp(t, c, lq, LogicalZ, 1); v != 1 {
			t.Errorf("d=%d: ⟨Z̄⟩ = %v, want 1", d, v)
		}
		if v := logicalExp(t, c, lq, LogicalX, 1); v != 0 {
			t.Errorf("d=%d: ⟨X̄⟩ = %v, want 0", d, v)
		}
	}
}

func TestPrepareZWithoutRound(t *testing.T) {
	// Verified in the paper both with and without the subsequent round of
	// syndrome extraction (Sec 4.2).
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	if v := logicalExp(t, c, lq, LogicalZ, 2); v != 1 {
		t.Errorf("⟨Z̄⟩ = %v, want 1", v)
	}
}

func TestPrepareXGivesLogicalPlus(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareX()
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	if v := logicalExp(t, c, lq, LogicalX, 3); v != 1 {
		t.Errorf("⟨X̄⟩ = %v, want 1", v)
	}
	if v := logicalExp(t, c, lq, LogicalZ, 3); v != 0 {
		t.Errorf("⟨Z̄⟩ = %v, want 0", v)
	}
}

func TestPrepareAllArrangements(t *testing.T) {
	// State preparation is verified from all four canonical arrangements
	// (paper Sec 4.2).
	for _, arr := range []Arrangement{Standard, Rotated, Flipped, RotatedFlipped} {
		c := newTestCompiler(t, 3, 3)
		lq := newTestPatch(t, c, 3, 3)
		lq.Arr = arr
		lq.invalidateGeometry()
		lq.TransversalPrepareZ()
		if _, err := lq.Idle(1); err != nil {
			t.Fatalf("%s: %v", arr.Name(), err)
		}
		if v := logicalExp(t, c, lq, LogicalZ, 4); v != 1 {
			t.Errorf("%s: ⟨Z̄⟩ = %v, want 1", arr.Name(), v)
		}
	}
}

func TestInjectY(t *testing.T) {
	for _, arr := range []Arrangement{Standard, Rotated, Flipped, RotatedFlipped} {
		c := newTestCompiler(t, 3, 3)
		lq := newTestPatch(t, c, 3, 3)
		lq.Arr = arr
		lq.invalidateGeometry()
		lq.InjectState(InjectY)
		if v := logicalExp(t, c, lq, LogicalY, 5); v != 1 {
			t.Errorf("%s: ⟨Ȳ⟩ = %v, want 1", arr.Name(), v)
		}
		if v := logicalExp(t, c, lq, LogicalZ, 5); v != 0 {
			t.Errorf("%s: ⟨Z̄⟩ = %v, want 0", arr.Name(), v)
		}
	}
}

func TestInjectYWithRound(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.InjectState(InjectY)
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	if v := logicalExp(t, c, lq, LogicalY, 6); v != 1 {
		t.Errorf("⟨Ȳ⟩ after round = %v, want 1", v)
	}
}

func TestTransversalHadamard(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	lq.TransversalHadamard()
	if lq.Arr != Rotated {
		t.Fatalf("arrangement after H = %s", lq.Arr.Name())
	}
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	// H|0̄⟩ = |+̄⟩.
	if v := logicalExp(t, c, lq, LogicalX, 7); v != 1 {
		t.Errorf("⟨X̄⟩ = %v, want 1", v)
	}
	if v := logicalExp(t, c, lq, LogicalZ, 7); v != 0 {
		t.Errorf("⟨Z̄⟩ = %v, want 0", v)
	}
}

func TestApplyPauliX(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	lq.ApplyPauli(LogicalX)
	if v := logicalExp(t, c, lq, LogicalZ, 8); v != -1 {
		t.Errorf("⟨Z̄⟩ after X̄ = %v, want -1", v)
	}
}

func TestApplyPauliZOnPlus(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareX()
	lq.ApplyPauli(LogicalZ)
	if v := logicalExp(t, c, lq, LogicalX, 9); v != -1 {
		t.Errorf("⟨X̄⟩ after Z̄ = %v, want -1", v)
	}
}

func TestApplyPauliYOnInjectY(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.InjectState(InjectY)
	lq.ApplyPauli(LogicalX) // X̄|+i⟩ ∝ |−i⟩
	if v := logicalExp(t, c, lq, LogicalY, 10); v != -1 {
		t.Errorf("⟨Ȳ⟩ after X̄ = %v, want -1", v)
	}
}

func TestIdlePreservesState(t *testing.T) {
	// Repeated idles keep the encoded state (quiescence; paper Sec 4.3).
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareX()
	if _, err := lq.Idle(3); err != nil {
		t.Fatal(err)
	}
	if v := logicalExp(t, c, lq, LogicalX, 11); v != 1 {
		t.Errorf("⟨X̄⟩ after 3 idles = %v, want 1", v)
	}
}

func TestQuiescenceRecordsStable(t *testing.T) {
	// After the first round, every plaquette outcome is deterministic and
	// repeats: the tracker must prove it, and the simulator must agree.
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	r1, err := lq.Idle(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lq.Idle(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := orqcs.RunOnce(c.Build(), 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := eng.Records()
	for face, rec1 := range r1[0].Records {
		rec2 := r2[0].Records[face]
		if recs[rec1] != recs[rec2] {
			t.Errorf("plaquette %v outcome changed between rounds: %v -> %v", face, recs[rec1], recs[rec2])
		}
	}
}

func TestCircuitIsHardwareValid(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(2); err != nil {
		t.Fatal(err)
	}
	if err := hardware.Validate(c.G, c.Build()); err != nil {
		t.Fatal(err)
	}
}

func TestJunctionConflictsAreResolved(t *testing.T) {
	// Vertically adjacent plaquettes share a junction; the schedule must
	// serialize their traversals (paper Sec 3.3). The validity of the
	// resulting circuit proves the resolution worked; here we additionally
	// confirm conflicts actually occur (shared junction usage).
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	shared := map[string]int{}
	for _, p := range lq.Plaquettes() {
		shared[p.JN.String()]++
		shared[p.JS.String()]++
	}
	found := false
	for _, n := range shared {
		if n > 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected plaquettes to share junctions")
	}
	if err := hardware.Validate(c.G, c.Build()); err != nil {
		t.Fatal(err)
	}
}

func TestTransversalMeasureZ(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	lq.ApplyPauli(LogicalX) // |1̄⟩
	lv, err := lq.LogicalValueOf(LogicalZ)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := lq.TransversalMeasure(pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	if lq.Initialized {
		t.Fatal("tile should be uninitialized after measurement")
	}
	eng, err := orqcs.RunOnce(c.Build(), 12)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct Z̄ from the transversal records along the representative.
	v := lv.Sign.Eval(eng.Records())
	for q := 0; q < lv.Rep.N; q++ {
		if lv.Rep.Kind(q) == pauli.Z {
			cell := Cell{q / c.cellCols, q % c.cellCols}
			if eng.Records()[recs[cell]] {
				v = !v
			}
		}
	}
	if !v {
		t.Error("Z̄ from transversal measurement = +1, want −1 (logical |1̄⟩)")
	}
}

func TestExplicitWellOpsEndToEnd(t *testing.T) {
	// A full logical operation compiled in explicit well-operation mode is
	// hardware-valid, quantum-equivalent, and has (nearly) the same
	// makespan as the aggregate-ZZ model.
	p := hardware.Default()
	p.ExplicitWellOps = true
	c := NewCompiler(5, 6, p)
	lq, err := c.NewLogicalQubit(3, 3, Cell{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	circ := c.Build()
	if err := hardware.Validate(c.G, circ); err != nil {
		t.Fatal(err)
	}
	counts := circ.GateCounts()
	if counts[circuit.MergeWells] == 0 || counts[circuit.Cool] == 0 || counts[circuit.MergeWells] != counts[circuit.ZZ] {
		t.Fatalf("well-operation counts wrong: %v", counts)
	}
	if v := logicalExp(t, c, lq, LogicalZ, 5); v != 1 {
		t.Fatalf("⟨Z̄⟩ = %v in explicit mode", v)
	}
	// Compare makespan with the aggregate model.
	c2 := NewCompiler(5, 6, hardware.Default())
	lq2, err := c2.NewLogicalQubit(3, 3, Cell{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	lq2.TransversalPrepareZ()
	if _, err := lq2.Idle(1); err != nil {
		t.Fatal(err)
	}
	if d1, d2 := circ.Duration(), c2.Build().Duration(); d1 != d2 {
		t.Fatalf("makespans differ: explicit %d vs aggregate %d", d1, d2)
	}
}
