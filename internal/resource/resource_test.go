package resource

import (
	"math"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/core"
	"tiscc/internal/grid"
	"tiscc/internal/hardware"
)

func TestFromCircuitBasic(t *testing.T) {
	p := hardware.Default()
	c := &circuit.Circuit{Events: []circuit.Event{
		{Gate: circuit.PrepareZ, S1: grid.Site{R: 0, C: 2}, Start: 0, Dur: 10_000, Record: -1},
		{Gate: circuit.ZZ, S1: grid.Site{R: 0, C: 2}, S2: grid.Site{R: 0, C: 3}, Start: 10_000, Dur: 2_000_000, Record: -1},
	}}
	est := FromCircuit(c, p)
	if est.Time != 2.01e-3 {
		t.Fatalf("time = %v", est.Time)
	}
	if est.Zones != 2 {
		t.Fatalf("zones = %d", est.Zones)
	}
	// Bounding box: 1 row × 2 cols of zones.
	wantArea := p.ZoneWidthM * 2 * p.ZoneWidthM
	if math.Abs(est.AreaM2-wantArea) > 1e-12 {
		t.Fatalf("area = %v, want %v", est.AreaM2, wantArea)
	}
	if est.Volume != est.Time*est.AreaM2 {
		t.Fatal("volume inconsistent")
	}
	if est.ZoneSeconds != 2*est.Time {
		t.Fatal("zone-seconds inconsistent")
	}
	wantActive := 10e-6 + 2*2e-3
	if math.Abs(est.ActiveZoneSeconds-wantActive) > 1e-12 {
		t.Fatalf("active zone-s = %v, want %v", est.ActiveZoneSeconds, wantActive)
	}
}

func TestEstimateIdleScaling(t *testing.T) {
	// Idle resources grow with distance: time roughly constant per round,
	// zones and area quadratically.
	est := map[int]Estimate{}
	for _, d := range []int{3, 5} {
		c := core.NewCompiler(d+2, d+3, hardware.Default())
		lq, err := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		if err != nil {
			t.Fatal(err)
		}
		lq.TransversalPrepareZ()
		if _, err := lq.Idle(1); err != nil {
			t.Fatal(err)
		}
		est[d] = FromCircuit(c.Build(), hardware.Default())
	}
	if est[5].Zones <= est[3].Zones {
		t.Fatalf("zones did not grow: %d vs %d", est[3].Zones, est[5].Zones)
	}
	if est[5].AreaM2 <= est[3].AreaM2 {
		t.Fatal("area did not grow")
	}
	// A round is dominated by 4 sequential ZZ steps (~8 ms) at any distance.
	for d, e := range est {
		if e.Time < 8e-3 || e.Time > 25e-3 {
			t.Fatalf("d=%d round time %v s out of expected band", d, e.Time)
		}
	}
}

func TestZZDominance(t *testing.T) {
	// Paper Sec 3.2: the 2 ms ZZ (split/merge/cool) dominates the time
	// budget of error correction.
	c := core.NewCompiler(5, 6, hardware.Default())
	lq, err := c.NewLogicalQubit(3, 3, core.Cell{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	est := FromCircuit(c.Build(), hardware.Default())
	p := hardware.Default()
	// The critical path of a round contains the four sequential ZZ
	// interaction steps; the paper's point is that the 2 ms ZZ dominates
	// everything else on that path.
	zzPath := 4 * float64(p.ZZ) / 1e9
	if est.Time < zzPath {
		t.Fatalf("round time %v shorter than its ZZ content %v", est.Time, zzPath)
	}
	if est.Time > 2.5*zzPath {
		t.Fatalf("round time %v not dominated by ZZ (%v)", est.Time, zzPath)
	}
}

func TestEmptyCircuit(t *testing.T) {
	est := FromCircuit(&circuit.Circuit{}, hardware.Default())
	if est.Time != 0 || est.Zones != 0 || est.AreaM2 != 0 {
		t.Fatalf("empty circuit estimate = %+v", est)
	}
}

func TestStringer(t *testing.T) {
	est := Estimate{Time: 1, Zones: 2}
	if len(est.String()) == 0 {
		t.Fatal("empty string")
	}
}
