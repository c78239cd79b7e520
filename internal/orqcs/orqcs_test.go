package orqcs

import (
	"math"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/hardware"
	"tiscc/internal/pauli"
)

func buildBell(t *testing.T) (*circuit.Circuit, grid.Site, grid.Site) {
	t.Helper()
	g := grid.New(2, 2)
	b := hardware.NewBuilder(g, hardware.Default())
	s1, s2 := grid.Site{R: 0, C: 2}, grid.Site{R: 0, C: 3}
	a := b.MustAddIon(s1)
	c := b.MustAddIon(s2)
	b.Prepare(a)
	b.Prepare(c)
	b.Hadamard(a)
	if err := b.CNOT(a, c); err != nil {
		t.Fatal(err)
	}
	return b.Build(), s1, s2
}

func TestBellCircuit(t *testing.T) {
	c, s1, s2 := buildBell(t)
	e, err := RunOnce(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   SitePauli
		want float64
	}{
		{SitePauli{s1: pauli.X, s2: pauli.X}, 1},
		{SitePauli{s1: pauli.Z, s2: pauli.Z}, 1},
		{SitePauli{s1: pauli.Y, s2: pauli.Y}, -1},
		{SitePauli{s1: pauli.Z}, 0},
	} {
		v, err := e.Expectation(tc.op)
		if err != nil {
			t.Fatal(err)
		}
		if v != tc.want {
			t.Errorf("⟨%v⟩ = %v, want %v", tc.op, v, tc.want)
		}
	}
}

func TestHadamardDecompositionActsAsHadamard(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	s := grid.Site{R: 0, C: 2}
	ion := b.MustAddIon(s)
	b.Prepare(ion)
	b.Hadamard(ion)
	c := b.Build()
	e, err := RunOnce(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Expectation(SitePauli{s: pauli.X}); v != 1 {
		t.Fatalf("H|0⟩ should have ⟨X⟩=1, got %v", v)
	}
	if v, _ := e.Expectation(SitePauli{s: pauli.Z}); v != 0 {
		t.Fatalf("H|0⟩ should have ⟨Z⟩=0, got %v", v)
	}
}

func TestMoveTracksIon(t *testing.T) {
	g := grid.New(2, 2)
	b := hardware.NewBuilder(g, hardware.Default())
	start := grid.Site{R: 1, C: 4}
	end := grid.Site{R: 0, C: 3}
	ion := b.MustAddIon(start)
	b.Prepare(ion)
	b.Gate1(circuit.XPi2, ion) // |1⟩
	p, err := g.Path(start, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MoveAlong(ion, p); err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	e, err := RunOnce(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Expectation(SitePauli{end: pauli.Z})
	if err != nil {
		t.Fatal(err)
	}
	if v != -1 {
		t.Fatalf("moved ion should be |1⟩ at %v: ⟨Z⟩=%v", end, v)
	}
	if _, ok := e.prog.finalAt[start]; ok {
		t.Fatal("origin site still maps to a qubit")
	}
}

func TestTextRoundTripExecution(t *testing.T) {
	c, s1, s2 := buildBell(t)
	e, err := RunText(c.String(), 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Expectation(SitePauli{s1: pauli.X, s2: pauli.X})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("⟨XX⟩ from text = %v", v)
	}
}

func TestMeasurementRecords(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	s := grid.Site{R: 0, C: 2}
	ion := b.MustAddIon(s)
	b.Prepare(ion)
	b.Gate1(circuit.XPi2, ion)
	rec := b.Measure(ion)
	c := b.Build()
	e, err := RunOnce(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Records()[rec]; got != true {
		t.Fatalf("record %d = %v, want true (|1⟩)", rec, got)
	}
}

// T-state injection on a bare qubit: verify ⟨X⟩, ⟨Y⟩ → 1/√2 statistically
// via the quasi-probability sampler (paper Sec 4.1).
func TestQuasiCliffordTGate(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	s := grid.Site{R: 0, C: 2}
	ion := b.MustAddIon(s)
	b.Prepare(ion)
	b.Hadamard(ion)            // |+⟩
	b.Gate1(circuit.ZPi8, ion) // T|+⟩
	c := b.Build()

	const shots = 40000
	want := 1 / math.Sqrt2
	for _, k := range []pauli.Kind{pauli.X, pauli.Y} {
		mean, stderr, err := Estimate(c, SitePauli{s: k}, shots, 11)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-want) > 5*stderr+0.01 {
			t.Errorf("⟨%v⟩ = %.4f ± %.4f, want %.4f", k, mean, stderr, want)
		}
	}
	mean, stderr, err := Estimate(c, SitePauli{s: pauli.Z}, shots, 13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean) > 5*stderr+0.01 {
		t.Errorf("⟨Z⟩ = %.4f ± %.4f, want 0", mean, stderr)
	}
}

func TestTDaggerGate(t *testing.T) {
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	s := grid.Site{R: 0, C: 2}
	ion := b.MustAddIon(s)
	b.Prepare(ion)
	b.Hadamard(ion)
	b.Gate1(circuit.ZmPi8, ion) // T†|+⟩: ⟨Y⟩ = −1/√2
	c := b.Build()
	mean, stderr, err := Estimate(c, SitePauli{s: pauli.Y}, 40000, 17)
	if err != nil {
		t.Fatal(err)
	}
	want := -1 / math.Sqrt2
	if math.Abs(mean-want) > 5*stderr+0.01 {
		t.Errorf("⟨Y⟩ = %.4f ± %.4f, want %.4f", mean, stderr, want)
	}
}

func TestCliffordWeightIsUnity(t *testing.T) {
	c, _, _ := buildBell(t)
	e, err := RunOnce(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.weight != 1 {
		t.Fatalf("weight = %v", e.weight)
	}
}

// TestCountIons checks that Compile allocates one tableau qubit per ion.
func TestCountIons(t *testing.T) {
	c, _, _ := buildBell(t)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.NumQubits(); n != 2 {
		t.Fatalf("ions = %d", n)
	}
}

func TestNativeZZGateSemantics(t *testing.T) {
	// (ZZ)_{π/4} on |++⟩ gives the state stabilized by {X⊗Y... } — check via
	// expectations: e^{-iπ/4 ZZ}|++⟩ has ⟨XY⟩ = ⟨YX⟩ = 1... Verify the known
	// conjugation: X⊗I → Y⊗Z means ⟨YZ⟩ after = ⟨XI⟩ before = 1.
	g := grid.New(1, 1)
	b := hardware.NewBuilder(g, hardware.Default())
	s1, s2 := grid.Site{R: 0, C: 1}, grid.Site{R: 0, C: 2}
	a := b.MustAddIon(s1)
	c2 := b.MustAddIon(s2)
	b.Prepare(a)
	b.Prepare(c2)
	b.Hadamard(a)
	b.Hadamard(c2)
	if err := b.ZZGate(a, c2); err != nil {
		t.Fatal(err)
	}
	cc := b.Build()
	e, err := RunOnce(cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	// U X1 U† = Y1 Z2 and U X2 U† = Z1 Y2: both had value +1 before.
	if v, _ := e.Expectation(SitePauli{s1: pauli.Y, s2: pauli.Z}); v != 1 {
		t.Fatalf("⟨YZ⟩ = %v", v)
	}
	if v, _ := e.Expectation(SitePauli{s1: pauli.Z, s2: pauli.Y}); v != 1 {
		t.Fatalf("⟨ZY⟩ = %v", v)
	}
}
