package decoder

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// reweighPs is the depolarizing grid the re-weighing tests sweep.
var reweighPs = []float64{5e-5, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2}

// sameGraph fails t unless g and want serialize to the same bytes and
// write the same DEM text of s.
func sameGraph(t testing.TB, what string, g, want *Graph, s *noise.Schedule) {
	t.Helper()
	if !bytes.Equal(AppendGraph(nil, g), AppendGraph(nil, want)) {
		t.Fatalf("%s: re-weighed graph bytes differ from a fresh CompileGraph's (%d vs %d edges)", what, len(g.edges), len(want.edges))
	}
	var a, b strings.Builder
	if err := g.WriteDEM(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteDEM(&b, s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("%s: DEM text differs", what)
	}
}

// TestReweighMatchesCompile plans each shape once, on its first
// depolarizing point, and compiles it under Table 5 and at every other p
// from the same Plans: every graph must equal a fresh CompileGraph's byte
// for byte. Depolarizing points re-weigh the first plan; Table 5, whose
// fault sites differ, gets a fresh one. Under the race detector memory
// stops at d=5.
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
			ps := NewPlans(sh.det)
			if _, err := ps.Graph(noise.Compile(noise.Depolarizing(reweighPs[0]), sh.prog)); err != nil {
				t.Fatal(err)
			}
			pl := ps.plans()[0]
			models := []noise.Model{noise.PaperTable5(hardware.Default())}
			for _, p := range reweighPs {
				models = append(models, noise.Depolarizing(p))
			}
			for _, m := range models {
				s := noise.Compile(m, sh.prog)
				g, err := ps.Graph(s)
				if err != nil {
					t.Fatal(err)
				}
				if reused := g.plan == pl; reused != (m.Name != "table5") || len(ps.plans()) != 2 {
					t.Fatalf("%s: plan reused %v, %d plans kept", m.Name, reused, len(ps.plans()))
				}
				sameGraph(t, m.Name, g, mustGraph(t, sh.det, s), s)
				if want := mustGraph(t, sh.det, s).Distance(); g.Distance() != want {
					t.Fatalf("%s: distance %d from the plan, %d searched", m.Name, g.Distance(), want)
				}
			}
		})
	}
}

// TestReweighFallsBackOnWinnerFlip compiles, on one Plans, a schedule with
// the fault sites and positive branches of a kept plan whose probabilities
// are skewed the other way, on a hand-built three-qubit program: qubits k, i
// and j are prepared, i and j meet in a ZZ gate, and k, i, j are measured
// in that order (records 0, 1, 2). Detectors D0 = D1 = {k, i} and
// D2 = {j}, observable {k}. Flipping k or i alone fires D0 and D1, so the
// pair (D0, D1) has two variants, with and without the observable; the ZZ
// gate's two-qubit faults flip i and j together, a hyper mechanism on D0,
// D1, D2 that decomposes through that pair. Two-qubit faults dominate one
// model, so the variant without the observable (i, which the gate's
// branches also flip) wins and the hyper decomposes; measurement flips
// dominate the other, k's comes first and wins, and the hyper's
// components no longer reproduce its observable. Plans must plan afresh
// and keep both plans (the stale plan's graph would have differed), and a
// later gate-heavy point re-weighs the older plan without planning.
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
	ps := NewPlans(det)
	if _, err := ps.Graph(noise.Compile(gateHeavy, prog)); err != nil {
		t.Fatal(err)
	}
	pl := ps.plans()[0]
	if len(pl.win) != 1 || len(pl.hyper) < 2 {
		t.Fatalf("plan reads %d contested pairs and decomposes %d hyper branches, want 1 and some", len(pl.win), len(pl.hyper))
	}
	s := noise.Compile(measHeavy, prog)
	if !pl.sched.SameSites(s) {
		t.Fatal("the two models should compile to the same fault sites")
	}
	g, err := ps.Graph(s)
	if err != nil {
		t.Fatal(err)
	}
	if g.plan == pl || len(ps.plans()) != 2 {
		t.Fatalf("%d plans kept, want a fresh one beside the plan whose decomposed pair's winning variant flipped", len(ps.plans()))
	}
	want := mustGraph(t, det, s)
	sameGraph(t, "fallback", g, want, s)
	if want.UndecomposedMechanisms() == 0 {
		t.Fatal("the measurement-heavy model should leave the hyper branches undecomposed")
	}
	P := make([]float64, len(pl.keys)+len(pl.hyper)-1)
	if _, ok := pl.fold(s, pl.pairOf, len(pl.win), P); !ok {
		t.Fatal("positive branches differ")
	}
	if bytes.Equal(AppendGraph(nil, pl.graph(P)), AppendGraph(nil, want)) {
		t.Fatal("the stale plan weighs to the fresh graph")
	}
	gateHeavy.P2 = 2e-2
	s = noise.Compile(gateHeavy, prog)
	if g, err = ps.Graph(s); err != nil {
		t.Fatal(err)
	}
	if g.plan != pl || len(ps.plans()) != 2 {
		t.Fatalf("%d plans kept, want the older gate-heavy plan re-weighed", len(ps.plans()))
	}
	sameGraph(t, "older plan", g, mustGraph(t, det, s), s)
}

// TestFreshPlanFitsItsSchedule pins what lets CompileGraph skip weigh's
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
			P, ok := pl.fits(tc.s)
			if !ok {
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

// TestPlansConcurrent compiles schedules of two model families from 8
// goroutines on a fresh Plans: the concurrent misses of each family build
// one plan, so two are kept, and every graph is a fresh CompileGraph's
// byte for byte. Run under -race in CI.
func TestPlansConcurrent(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	det := mustDetectors(t, mem)
	ps := NewPlans(det)
	start := make(chan struct{}) // every goroutine asks at once
	var wg sync.WaitGroup
	for i := range 8 {
		p := 1e-3 * float64(1+i/2)
		m := noise.Depolarizing(p)
		if i%2 == 1 {
			m = noise.Model{Name: "gates-and-readout", P2: p, PMeas: p}
		}
		s := noise.Compile(m, mem.Prog)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			g, err := ps.Graph(s)
			want, errWant := CompileGraph(det, s)
			if err != nil || errWant != nil {
				t.Error(err, errWant)
				return
			}
			if !bytes.Equal(AppendGraph(nil, g), AppendGraph(nil, want)) {
				t.Errorf("%s p=%g: graph bytes differ from a fresh CompileGraph's", m.Name, p)
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(ps.plans()) != 2 {
		t.Fatalf("%d plans kept for two model families, want 2", len(ps.plans()))
	}
}

// TestPlansEvictLeastRecent compiles five model families, each with its
// own fault sites, on one Plans: it keeps the last maxPlans plans, most
// recent first. An older family's next point re-weighs its plan without
// planning or reordering, and the evicted family plans afresh.
func TestPlansEvictLeastRecent(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	det := mustDetectors(t, mem)
	families := []func(p float64) noise.Model{
		noise.Depolarizing,
		func(p float64) noise.Model { return noise.Model{Name: "readout", PMeas: p} },
		func(p float64) noise.Model { return noise.Model{Name: "gates", P2: p, PMeas: p} },
		func(p float64) noise.Model { return noise.Model{Name: "spam", PPrep: p, PMeas: p} },
		func(p float64) noise.Model { return noise.Model{Name: "one-qubit", P1: p, P1Z: p, PMeas: p} },
	}
	ps := NewPlans(det)
	graph := func(family int, p float64) *Graph {
		t.Helper()
		s := noise.Compile(families[family](p), mem.Prog)
		g, err := ps.Graph(s)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, s.Model().Name, g, mustGraph(t, det, s), s)
		return g
	}
	var planned []*plan
	for i := range families {
		g := graph(i, 1e-3)
		planned = append(planned, g.plan)
		if ps.plans()[0] != g.plan || len(ps.plans()) != min(i+1, maxPlans) {
			t.Fatalf("family %d: %d plans kept, the new one first %v", i, len(ps.plans()), ps.plans()[0] == g.plan)
		}
	}
	if slices.Contains(ps.plans(), planned[0]) {
		t.Fatal("the least recent plan was kept beyond maxPlans")
	}
	kept := ps.plans()
	if g := graph(1, 3e-3); g.plan != planned[1] || !slices.Equal(ps.plans(), kept) {
		t.Fatal("an older family's point did not re-weigh its kept plan in place")
	}
	if g := graph(0, 3e-3); slices.Contains(planned, g.plan) || ps.plans()[0] != g.plan || slices.Contains(ps.plans(), planned[1]) {
		t.Fatal("the evicted family did not plan afresh, evicting the least recent plan")
	}
}
