package decoder

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// reweighPs is the depolarizing grid the re-weighing tests sweep.
var reweighPs = []float64{5e-5, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2}

// sameGraph fails t unless g and want serialize to the same bytes and the
// schedule's DEM text is the same written with either graph's detectors.
func sameGraph(t *testing.T, what string, g, want *Graph, s *noise.Schedule) {
	t.Helper()
	if !bytes.Equal(AppendGraph(nil, g), AppendGraph(nil, want)) {
		t.Fatalf("%s: re-weighed graph bytes differ from a fresh CompileGraph's (%d vs %d edges)", what, len(g.edges), len(want.edges))
	}
	var a, b strings.Builder
	if err := WriteDEM(&a, g.Detectors(), s); err != nil {
		t.Fatal(err)
	}
	if err := WriteDEM(&b, want.Detectors(), s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("%s: DEM text differs", what)
	}
}

// TestReweighMatchesCompile plans each shape once, on its first
// depolarizing point, and re-weighs that plan at every other p and under
// Table 5: every graph must equal a fresh CompileGraph's byte for byte.
// Depolarizing points reuse the plan; Table 5, whose fault sites differ,
// gets a fresh one. Under the race detector memory stops at d=5.
func TestReweighMatchesCompile(t *testing.T) {
	type shape struct {
		name string
		prog *orqcs.Program
		det  *Detectors
	}
	ds := []int{3, 5, 7, 9}
	if raceEnabled {
		ds = ds[:2]
	}
	var shapes []shape
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		for _, d := range ds {
			mem := mustMemory(t, d, d, basis)
			shapes = append(shapes, shape{fmt.Sprintf("memory-d%d-%v", d, basis), mem.Prog, mustDetectors(t, mem)})
		}
		for _, d := range []int{3, 5} {
			s := mustSurgery(t, d, 1, d, 1, basis)
			shapes = append(shapes, shape{fmt.Sprintf("surgery-d%d-%v", d, basis), s.Prog, mustSurgeryDetectors(t, s)})
		}
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			pl, _, err := newPlan(sh.det, noise.Compile(noise.Depolarizing(reweighPs[0]), sh.prog))
			if err != nil {
				t.Fatal(err)
			}
			models := []noise.Model{noise.PaperTable5(hardware.Default())}
			for _, p := range reweighPs {
				models = append(models, noise.Depolarizing(p))
			}
			for _, m := range models {
				s := noise.Compile(m, sh.prog)
				g, used, err := pl.Weigh(s)
				if err != nil {
					t.Fatal(err)
				}
				if reused := used == pl; reused != (m.Name != "table5") {
					t.Fatalf("%s: plan reused %v", m.Name, reused)
				}
				sameGraph(t, m.Name, g, mustGraph(t, sh.det, s), s)
				if want := mustGraph(t, sh.det, s).Distance(); g.Distance() != want {
					t.Fatalf("%s: distance %d from the plan, %d searched", m.Name, g.Distance(), want)
				}
			}
		})
	}
}

// TestReweighFallsBackOnWinnerFlip weighs a plan against a schedule with
// the same fault sites and positive branches whose probabilities are
// skewed the other way, on a hand-built three-qubit program: qubits k, i
// and j are prepared, i and j meet in a ZZ gate, and k, i, j are measured
// in that order (records 0, 1, 2). Detectors D0 = D1 = {k, i} and
// D2 = {j}, observable {k}. Flipping k or i alone fires D0 and D1, so the
// pair (D0, D1) has two variants, with and without the observable; the ZZ
// gate's two-qubit faults flip i and j together, a hyper mechanism on D0,
// D1, D2 that decomposes through that pair. Two-qubit faults dominate one
// model, so the variant without the observable (i, which the gate's
// branches also flip) wins and the hyper decomposes; measurement flips
// dominate the other, k's comes first and wins, and the hyper's
// components no longer reproduce its observable. Weigh must plan afresh,
// and the stale plan's graph would have differed.
func TestReweighFallsBackOnWinnerFlip(t *testing.T) {
	c, err := circuit.Parse("Prepare_Z 0.0 t=0 d=10\nPrepare_Z 0.1 t=0 d=10\nPrepare_Z 0.2 t=0 d=10\n" +
		"ZZ 0.1 0.2 t=10 d=10\nMeasure_Z 0.0 t=20 d=10 m=0\nMeasure_Z 0.1 t=30 d=10 m=1\nMeasure_Z 0.2 t=40 d=10 m=2\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	det := &Detectors{basis: pauli.Z, Obs: []int32{0}, Dets: []Detector{
		{Recs: []int32{0, 1}, Type: pauli.Z}, {Recs: []int32{0, 1}, Type: pauli.Z}, {Recs: []int32{2}, Type: pauli.Z}}}
	gateHeavy := noise.Model{Name: "gate-heavy", P2: 3e-2, PPrep: 1e-5, PMeas: 1e-4}
	measHeavy := noise.Model{Name: "meas-heavy", P2: 1e-4, PPrep: 1e-5, PMeas: 3e-2}
	pl, _, err := newPlan(det, noise.Compile(gateHeavy, prog))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.win) != 1 || len(pl.hyper) < 2 {
		t.Fatalf("plan reads %d contested pairs and decomposes %d hyper branches, want 1 and some", len(pl.win), len(pl.hyper))
	}
	s := noise.Compile(measHeavy, prog)
	if !pl.Covers(s) {
		t.Fatal("the two models should compile to the same fault sites")
	}
	g, used, err := pl.Weigh(s)
	if err != nil {
		t.Fatal(err)
	}
	if used == pl {
		t.Fatal("the plan was reused although a decomposed pair's winning variant flipped")
	}
	want := mustGraph(t, det, s)
	sameGraph(t, "fallback", g, want, s)
	if want.UndecomposedMechanisms() == 0 {
		t.Fatal("the measurement-heavy model should leave the hyper branches undecomposed")
	}
	P := pl.probs()
	if _, ok := pl.fold(s, pl.pairOf, len(pl.win), P); !ok {
		t.Fatal("positive branches differ")
	}
	if bytes.Equal(AppendGraph(nil, pl.graph(P)), AppendGraph(nil, want)) {
		t.Fatal("the stale plan weighs to the fresh graph")
	}
}

// TestFreshPlanFitsItsSchedule pins what lets CompileGraph skip Weigh's
// check: a plan fits the schedule it was built from, and the probabilities
// newPlan folds while planning are the ones fits folds, bit for bit. The
// hand-built program of TestReweighFallsBackOnWinnerFlip covers contested
// pairs and undecomposed hyper branches.
func TestFreshPlanFitsItsSchedule(t *testing.T) {
	c, err := circuit.Parse("Prepare_Z 0.0 t=0 d=10\nPrepare_Z 0.1 t=0 d=10\nPrepare_Z 0.2 t=0 d=10\n" +
		"ZZ 0.1 0.2 t=10 d=10\nMeasure_Z 0.0 t=20 d=10 m=0\nMeasure_Z 0.1 t=30 d=10 m=1\nMeasure_Z 0.2 t=40 d=10 m=2\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	tiny := &Detectors{basis: pauli.Z, Obs: []int32{0}, Dets: []Detector{
		{Recs: []int32{0, 1}, Type: pauli.Z}, {Recs: []int32{0, 1}, Type: pauli.Z}, {Recs: []int32{2}, Type: pauli.Z}}}
	mem := mustMemory(t, 5, 5, pauli.X)
	surg := mustSurgery(t, 3, 1, 1, 1, pauli.Z)
	for _, tc := range []struct {
		name string
		det  *Detectors
		s    *noise.Schedule
	}{
		{"gate-heavy", tiny, noise.Compile(noise.Model{P2: 3e-2, PPrep: 1e-5, PMeas: 1e-4}, prog)},
		{"meas-heavy", tiny, noise.Compile(noise.Model{P2: 1e-4, PPrep: 1e-5, PMeas: 3e-2}, prog)},
		{"memory-d5-X-zero-classes", mustDetectors(t, mem), noise.Compile(noise.Model{P1: 1e-3, PMeas: 2e-3, T2: 5e8}, mem.Prog)},
		{"surgery-d3-table5", mustSurgeryDetectors(t, surg), noise.Compile(noise.PaperTable5(hardware.Default()), surg.Prog)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, fresh, err := newPlan(tc.det, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			P := pl.probs()
			if !pl.fits(tc.s, P) {
				t.Fatal("a fresh plan does not fit its own schedule")
			}
			if len(fresh) != len(P) {
				t.Fatalf("newPlan folds %d probabilities, fits %d", len(fresh), len(P))
			}
			for i := range P {
				if math.Float64bits(fresh[i]) != math.Float64bits(P[i]) {
					t.Fatalf("probability %d: newPlan folds %g, fits %g", i, fresh[i], P[i])
				}
			}
		})
	}
}
