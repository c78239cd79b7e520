package experiment

import (
	"bytes"
	"strings"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
)

func TestModel(t *testing.T) {
	if m, err := Model(ModelDepolarizing, 2e-3); err != nil || m != noise.Depolarizing(2e-3) {
		t.Fatalf("Model(depolarizing, 2e-3) = %+v, %v", m, err)
	}
	if m, err := Model(ModelTable5, 0.7); err != nil || m != noise.PaperTable5(hardware.Default()) {
		t.Fatalf("Model(table5) = %+v, %v", m, err)
	}
	if _, err := Model("exotic", 0); err == nil {
		t.Fatal("Model accepted an unknown name")
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Workload: Memory, Distance: 3, Model: noise.Depolarizing(1e-3)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"workload", func(s *Spec) { s.Workload = "teleport" }, "workload must be"},
		{"distance", func(s *Spec) { s.Distance = 1 }, "distance must be ≥ 2"},
		{"rounds", func(s *Spec) { s.Rounds = -1 }, "rounds must be ≥ 0"},
		{"model", func(s *Spec) { s.Model = noise.Depolarizing(1.5) }, "outside [0, 1]"},
	} {
		s := good
		tc.edit(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if _, cerr := Compile(s, false, nil); cerr == nil {
			t.Errorf("%s: Compile accepted an invalid spec", tc.name)
		}
	}
}

func TestNumRoundsAndString(t *testing.T) {
	s := Spec{Workload: Surgery, Distance: 5, Model: noise.Depolarizing(3e-3)}
	if s.NumRounds() != 5 {
		t.Fatalf("Rounds 0 compiles %d rounds, want the distance", s.NumRounds())
	}
	s.Rounds = 2
	if s.NumRounds() != 2 {
		t.Fatalf("Rounds 2 compiles %d rounds", s.NumRounds())
	}
	if got := s.String(); got != "surgery d=5 p=0.003" {
		t.Fatalf("String() = %q", got)
	}
	s.Model = noise.PaperTable5(hardware.Default())
	if got := s.String(); got != "surgery d=5 table5" {
		t.Fatalf("String() = %q", got)
	}
}

// TestCompileStages checks Compile's stage outputs and spans: raw specs get
// neither detectors nor a decoding graph, decoded ones get both, and the
// spans name every stage.
func TestCompileStages(t *testing.T) {
	spec := Spec{Workload: Memory, Distance: 3, Rounds: 2, Model: noise.Depolarizing(1e-3)}
	raw, err := Compile(spec, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Graph != nil || raw.Detectors != nil || raw.Sched.NumFaultSites() == 0 {
		t.Fatalf("raw compile: graph=%v detectors=%v", raw.Graph, raw.Detectors)
	}
	if _, err := raw.Circuit.Compile(spec.Model, true, nil); err == nil {
		t.Fatal("decoding a circuit built without detectors succeeded")
	}
	sp := telemetry.NewSpans()
	dec, err := Compile(spec, true, sp)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Graph == nil || dec.Detectors == nil {
		t.Fatal("decoded compile has no graph or detectors")
	}
	if dec.Detectors.Rounds() != 2 {
		t.Fatalf("detectors span %d rounds, want 2", dec.Detectors.Rounds())
	}
	var names []string
	for _, s := range sp.Spans() {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "compile,noise-compile,decoder-compile" {
		t.Fatalf("spans %s", got)
	}
}

// TestCircuitSharedAcrossModels checks the sweep path: one Build compiled
// against several models gives, model for model, the same estimate as a
// fresh Compile of each spec, and records one compile span in all.
func TestCircuitSharedAcrossModels(t *testing.T) {
	sp := telemetry.NewSpans()
	circ, err := Build(Spec{Workload: Surgery, Distance: 3}, true, sp)
	if err != nil {
		t.Fatal(err)
	}
	opt := noise.Options{Shots: 200, Seed: 1, Workers: 2}
	for _, m := range []noise.Model{noise.Depolarizing(2e-3), noise.Depolarizing(5e-3), noise.PaperTable5(hardware.Default())} {
		shared, err := circ.Compile(m, true, sp)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compile(Spec{Workload: Surgery, Distance: 3, Model: m}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Spec != fresh.Spec {
			t.Fatalf("spec %+v, want %+v", shared.Spec, fresh.Spec)
		}
		got, err := shared.Estimate(opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Estimate(opt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: shared circuit %+v, fresh compile %+v", m.Name, got, want)
		}
	}
	compiles := 0
	for _, s := range sp.Spans() {
		if s.Name == "compile" {
			compiles++
		}
	}
	if compiles != 1 {
		t.Fatalf("%d compile spans, want 1", compiles)
	}
}

// TestRunMatchesEstimate checks the point runner against a plain Estimate
// of the same compiled experiment, with every diagnostic enabled: the
// diagnostics must not move the result, and the point must carry the
// manifest sections they ask for.
func TestRunMatchesEstimate(t *testing.T) {
	c, err := Compile(Spec{Workload: Memory, Distance: 3, Model: noise.Depolarizing(3e-3)}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Estimate(noise.Options{Shots: 512, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	sp := telemetry.NewSpans()
	pt, err := c.Run(RunOptions{Shots: 512, Seed: 3, Workers: 3, Diag: true, DemCalib: true,
		Progress: &progress, Label: "memory d=3 p=0.003", Spans: sp})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Result != want {
		t.Fatalf("Run %+v differs from Estimate %+v", pt.Result, want)
	}
	for _, comp := range []string{"program", "noise", "sampler", "decoder", "error_budget"} {
		if pt.Telemetry.Metrics[comp] == nil {
			t.Fatalf("point lacks %q metrics", comp)
		}
	}
	if _, ok := pt.Telemetry.Labels["engine"]; ok || pt.Telemetry.Labels["p"] != 3e-3 || pt.Telemetry.Labels["rounds"] != 3 {
		t.Fatalf("labels %v", pt.Telemetry.Labels)
	}
	if pt.Telemetry.Attribution == nil || pt.Telemetry.Detectors == nil {
		t.Fatal("point lacks the attribution or calibration report")
	}
	if !strings.Contains(pt.Tables, "error budget:") || !strings.Contains(pt.Tables, "detector calibration:") {
		t.Fatalf("tables missing:\n%s", pt.Tables)
	}
	if !strings.Contains(progress.String(), `"label":"memory d=3 p=0.003"`) {
		t.Fatalf("progress stream lacks the point label:\n%s", progress.String())
	}
	if len(sp.Spans()) != 1 || sp.Spans()[0].Name != "estimate" {
		t.Fatalf("run spans %+v", sp.Spans())
	}
}

// TestRawRunRefusesCalibration pins that detector calibration needs a
// decoded run: detector statistics come from the detector words a decoder
// builds, so a raw-readout run of a circuit built with detectors must
// report an error for DemCalib rather than a table of silent detectors,
// while its error-budget attribution still works.
func TestRawRunRefusesCalibration(t *testing.T) {
	circ, err := Build(Spec{Workload: Memory, Distance: 3}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := circ.Compile(noise.Depolarizing(3e-3), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunOptions{Shots: 128, Seed: 1, DemCalib: true}); err == nil {
		t.Fatal("a raw-readout run reported detector calibration")
	}
	pt, err := c.Run(RunOptions{Shots: 128, Seed: 1, Diag: true})
	if err != nil || pt.Telemetry.Attribution == nil {
		t.Fatalf("raw-readout attribution: %v, %v", pt, err)
	}
}

// TestEstimateOpSamplerChoice checks EstimateOp's sampler choice: a Clifford
// program samples on the frame engine, bit-identical to the tableau's
// estimate, and a program with a T gate falls back to the tableau's
// quasi-probability branches.
func TestEstimateOpSamplerChoice(t *testing.T) {
	const plus = "Prepare_Z 0.2 t=0 d=10000\nY_pi/4 0.2 t=10000 d=10000\n"
	c, err := circuit.Parse(plus)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	q := grid.Site{R: 0, C: 2}
	op := orqcs.SitePauli{q: pauli.X}
	sched := noise.Compile(noise.Depolarizing(0.05), prog)
	mean, stderr, err := EstimateOp(prog, sched, op, 400, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	wm, ws, err := orqcs.EstimateMany(sched.Program(), sched.RunShot, []orqcs.SitePauli{op}, 400, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mean != wm[0] || stderr != ws[0] {
		t.Fatalf("frame estimate %v ± %v differs from the tableau's %v ± %v", mean, stderr, wm[0], ws[0])
	}
	if c, err = circuit.Parse(plus + "Z_pi/8 0.2 t=20000 d=3000\n"); err != nil {
		t.Fatal(err)
	}
	if prog, err = orqcs.Compile(c); err != nil {
		t.Fatal(err)
	}
	if prog.Clifford() {
		t.Fatal("T-gate program reads as Clifford")
	}
	if mean, _, err = EstimateOp(prog, nil, op, 4000, 5, 2); err != nil {
		t.Fatal(err)
	}
	if mean < 0.6 || mean > 0.8 {
		t.Fatalf("⟨X⟩ after T|+⟩ = %v, want ≈ 0.7071", mean)
	}
}

// TestNoRawFallbacks estimates the standard decoded workloads — memory
// d=3..9 and the surgery cycle d=3,5, under the depolarizing and Table 5
// models — and requires that the decoder neutralized every syndrome: a
// silent fallback to the raw readout would bias p_L.
func TestNoRawFallbacks(t *testing.T) {
	shots := 2000
	if testing.Short() {
		shots = 128
	}
	models := []noise.Model{noise.Depolarizing(3e-3), noise.PaperTable5(hardware.Default())}
	var specs []Spec
	for _, d := range []int{3, 5, 7, 9} {
		specs = append(specs, Spec{Workload: Memory, Distance: d})
	}
	for _, d := range []int{3, 5} {
		specs = append(specs, Spec{Workload: Surgery, Distance: d})
	}
	for _, s := range specs {
		for _, m := range models {
			s.Model = m
			t.Run(s.String(), func(t *testing.T) {
				c, err := Compile(s, true, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Estimate(noise.Options{Shots: shots, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if res.RawFallbacks != 0 {
					t.Fatalf("result reports %d raw fallbacks in %d shots", res.RawFallbacks, shots)
				}
				met := c.Graph.Metrics()
				if met.Counter("shots") != uint64(shots) || met.Counter("defects") == 0 {
					t.Fatalf("decoder saw %d shots with %d defects, want %d shots with some defects",
						met.Counter("shots"), met.Counter("defects"), shots)
				}
				if n := met.Counter("raw_fallbacks"); n != 0 {
					t.Fatalf("%d of %d decodes fell back to the raw readout", n, shots)
				}
			})
		}
	}
}
