package hardware

import (
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
)

func TestDefaultParamsMatchTable5(t *testing.T) {
	p := Default()
	// Paper Table 5 (µs): Prepare 10, Measure 120, X/Y 10, Z 3, ZZ 2000,
	// Move 5.25, Junction 105.
	if p.PrepareZ != 10_000 || p.MeasureZ != 120_000 || p.ZZ != 2_000_000 {
		t.Fatal("prepare/measure/ZZ durations off")
	}
	if p.Move != 5_250 || p.Junction != 105_000 {
		t.Fatal("movement durations off")
	}
	// Derived from physics: 420 µm / 80 m/s = 5.25 µs; 420 µm / 4 m/s = 105 µs.
	if d := int64(p.ZoneWidthM / p.TransportMPS * 1e9); d != p.Move {
		t.Fatalf("move time inconsistent with velocity: %d", d)
	}
	if d := int64(p.ZoneWidthM / p.JunctionMPS * 1e9); d != p.Junction {
		t.Fatalf("junction time inconsistent with velocity: %d", d)
	}
	for _, g := range []circuit.Gate{circuit.XPi2, circuit.XPi4, circuit.XmPi4, circuit.YPi2, circuit.YPi4, circuit.YmPi4} {
		if p.Duration(g) != 10_000 {
			t.Fatalf("%s duration = %d", g, p.Duration(g))
		}
	}
	for _, g := range []circuit.Gate{circuit.ZPi2, circuit.ZPi4, circuit.ZmPi4, circuit.ZPi8, circuit.ZmPi8} {
		if p.Duration(g) != 3_000 {
			t.Fatalf("%s duration = %d", g, p.Duration(g))
		}
	}
}

// TestEveryGateHasDuration checks that Duration covers the whole native gate
// set, with and without explicit well operations: its unknown-gate panic is
// reachable only from a value outside the set, which Parse never returns.
func TestEveryGateHasDuration(t *testing.T) {
	for _, explicit := range []bool{false, true} {
		p := Default()
		p.ExplicitWellOps = explicit
		for g := range circuit.NumGates {
			if d := p.Duration(g); d <= 0 {
				t.Errorf("%v (explicit wells %v): duration %d", g, explicit, d)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Duration of a non-gate did not panic")
		}
	}()
	Default().Duration(circuit.NumGates)
}

func TestBuilderSequentialGates(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	ion := b.MustAddIon(grid.Site{R: 0, C: 2})
	b.Prepare(ion)
	b.Gate1(circuit.XPi2, ion)
	rec := b.Measure(ion)
	if rec != 0 {
		t.Fatalf("record = %d", rec)
	}
	c := b.Build()
	if len(c.Events) != 3 {
		t.Fatalf("events = %d", len(c.Events))
	}
	if c.Events[1].Start != 10_000 || c.Events[2].Start != 20_000 {
		t.Fatalf("sequencing wrong: %v", c.Events)
	}
	if c.Duration() != 140_000 {
		t.Fatalf("duration = %d", c.Duration())
	}
	if err := Validate(g, c); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderParallelIons(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	a := b.MustAddIon(grid.Site{R: 0, C: 2})
	c := b.MustAddIon(grid.Site{R: 4, C: 2})
	b.Gate1(circuit.XPi2, a)
	b.Gate1(circuit.XPi2, c)
	cc := b.Build()
	if cc.Events[0].Start != 0 || cc.Events[1].Start != 0 {
		t.Fatal("independent ions should operate in parallel")
	}
	if cc.Duration() != 10_000 {
		t.Fatalf("duration = %d", cc.Duration())
	}
}

func TestZZRequiresAdjacency(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	a := b.MustAddIon(grid.Site{R: 0, C: 2})
	c := b.MustAddIon(grid.Site{R: 0, C: 3})
	d := b.MustAddIon(grid.Site{R: 4, C: 2})
	if err := b.ZZGate(a, c); err != nil {
		t.Fatalf("adjacent ZZ rejected: %v", err)
	}
	if err := b.ZZGate(a, d); err == nil {
		t.Fatal("non-adjacent ZZ accepted")
	}
}

func TestMoveAlongWithJunction(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	ion := b.MustAddIon(grid.Site{R: 1, C: 4}) // vertical arm M below junction (0,4)
	path, err := g.Path(grid.Site{R: 1, C: 4}, grid.Site{R: 0, C: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MoveAlong(ion, path); err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	if len(c.Events) != 1 {
		t.Fatalf("expected single junction hop, got %v", c.Events)
	}
	e := c.Events[0]
	if !e.ViaJunction || e.Dur != 2*105_000 {
		t.Fatalf("junction hop wrong: %+v", e)
	}
	if b.Pos(ion) != (grid.Site{R: 0, C: 3}) {
		t.Fatalf("ion position = %v", b.Pos(ion))
	}
	if err := Validate(g, c); err != nil {
		t.Fatal(err)
	}
}

func TestJunctionConflictSerialized(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	// Two ions both traverse junction (0,4) at the same nominal time.
	i1 := b.MustAddIon(grid.Site{R: 1, C: 4})
	i2 := b.MustAddIon(grid.Site{R: 0, C: 5})
	p1, _ := g.Path(grid.Site{R: 1, C: 4}, grid.Site{R: 0, C: 3}, nil)
	if err := b.MoveAlong(i1, p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := g.Path(grid.Site{R: 0, C: 5}, grid.Site{R: 1, C: 4}, nil)
	if err := b.MoveAlong(i2, p2); err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	if len(c.Events) != 2 {
		t.Fatalf("events = %d", len(c.Events))
	}
	// Second traversal must wait for the first (serialization).
	if c.Events[1].Start != c.Events[0].End() {
		t.Fatalf("junction conflict not serialized: %+v", c.Events)
	}
	if err := Validate(g, c); err != nil {
		t.Fatal(err)
	}
}

func TestMoveIntoOccupiedSiteFails(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	i1 := b.MustAddIon(grid.Site{R: 0, C: 1})
	b.MustAddIon(grid.Site{R: 0, C: 2})
	if err := b.MoveAlong(i1, []grid.Site{{R: 0, C: 1}, {R: 0, C: 2}}); err == nil {
		t.Fatal("move into occupied site accepted")
	}
}

func TestMoveAfterVacate(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	i1 := b.MustAddIon(grid.Site{R: 0, C: 1})
	i2 := b.MustAddIon(grid.Site{R: 0, C: 2})
	// i2 leaves, then i1 takes its place: must be scheduled after the vacate.
	if err := b.MoveAlong(i2, []grid.Site{{R: 0, C: 2}, {R: 0, C: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := b.MoveAlong(i1, []grid.Site{{R: 0, C: 1}, {R: 0, C: 2}}); err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	if err := Validate(g, c); err != nil {
		t.Fatal(err)
	}
}

func TestCNOTDecomposition(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	a := b.MustAddIon(grid.Site{R: 0, C: 2})
	c := b.MustAddIon(grid.Site{R: 0, C: 3})
	if err := b.CNOT(a, c); err != nil {
		t.Fatal(err)
	}
	cc := b.Build()
	counts := cc.GateCounts()
	if counts[circuit.ZZ] != 1 {
		t.Fatalf("CNOT should contain one ZZ, got %d", counts[circuit.ZZ])
	}
	if counts[circuit.ZmPi4] != 2 || counts[circuit.ZPi2] != 2 || counts[circuit.YPi4] != 2 {
		t.Fatalf("CNOT native counts wrong: %v", counts)
	}
	if err := Validate(g, cc); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitSerializationRoundTrip(t *testing.T) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	ion := b.MustAddIon(grid.Site{R: 1, C: 4})
	b.Prepare(ion)
	p, _ := g.Path(grid.Site{R: 1, C: 4}, grid.Site{R: 0, C: 3}, nil)
	if err := b.MoveAlong(ion, p); err != nil {
		t.Fatal(err)
	}
	b.Gate1(circuit.ZPi4, ion)
	b.Measure(ion)
	c := b.Build()
	text := c.String()
	parsed, err := circuit.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != len(c.Events) {
		t.Fatalf("parsed %d events, want %d", len(parsed.Events), len(c.Events))
	}
	for i := range parsed.Events {
		if parsed.Events[i] != c.Events[i] {
			t.Fatalf("event %d mismatch:\n%+v\n%+v", i, parsed.Events[i], c.Events[i])
		}
	}
	if err := Validate(g, parsed); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesJunctionConflict(t *testing.T) {
	g := grid.New(2, 2)
	c := &circuit.Circuit{Events: []circuit.Event{
		{Gate: circuit.Move, S1: grid.Site{R: 1, C: 4}, S2: grid.Site{R: 0, C: 3}, Start: 0, Dur: 210_000, Record: -1, ViaJunction: true},
		{Gate: circuit.Move, S1: grid.Site{R: 0, C: 5}, S2: grid.Site{R: 1, C: 4}, Start: 100_000, Dur: 210_000, Record: -1, ViaJunction: true},
	}}
	if err := Validate(g, c); err == nil {
		t.Fatal("expected junction conflict error")
	}
}

func TestValidateCatchesDoubleOccupancy(t *testing.T) {
	g := grid.New(2, 2)
	c := &circuit.Circuit{Events: []circuit.Event{
		{Gate: circuit.XPi2, S1: grid.Site{R: 0, C: 2}, Start: 0, Dur: 10_000, Record: -1},
		{Gate: circuit.Move, S1: grid.Site{R: 0, C: 1}, S2: grid.Site{R: 0, C: 2}, Start: 0, Dur: 5_250, Record: -1},
	}}
	if err := Validate(g, c); err == nil {
		t.Fatal("expected occupancy error")
	}
}

func TestExplicitWellOps(t *testing.T) {
	// Paper future work (i)(a): with explicit well operations, a two-qubit
	// interaction decomposes into Merge_Wells + bare ZZ + Split_Wells + Cool
	// whose total duration matches the default aggregate 2 ms ZZ model.
	g := grid.New(2, 2)
	p := Default()
	p.ExplicitWellOps = true
	b := NewBuilder(g, p)
	a := b.MustAddIon(grid.Site{R: 0, C: 2})
	c := b.MustAddIon(grid.Site{R: 0, C: 3})
	if err := b.ZZGate(a, c); err != nil {
		t.Fatal(err)
	}
	cc := b.Build()
	if len(cc.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(cc.Events))
	}
	want := []circuit.Gate{circuit.MergeWells, circuit.ZZ, circuit.SplitWells, circuit.Cool}
	var total int64
	for i, e := range cc.Events {
		if e.Gate != want[i] {
			t.Fatalf("event %d = %s, want %s", i, e.Gate, want[i])
		}
		total += e.Dur
	}
	if total != Default().ZZ {
		t.Fatalf("explicit sequence takes %d ns, aggregate model %d ns", total, Default().ZZ)
	}
	if err := Validate(g, cc); err != nil {
		t.Fatal(err)
	}
}
