// Package experiment is the one path from a logical-error workload spec to
// a compiled, runnable experiment and its estimate. A Spec names the
// workload (idle memory or a two-patch ZZ merge/split cycle), the code
// distance, the round count and the noise model; Compile lowers it in the
// paper's order — experiment circuit, detector extraction, fault schedule
// and, for decoded runs, the union-find decoding graph (the DEM) — and
// Estimate samples it on the Pauli-frame sampler. Every estimate only
// draws each batch's fault firings and judges them in detector space: a
// decoded one decodes the detector words the graph's retained effect table
// gives, a raw-readout one flips the outcome's noiseless value by the
// outcome's own effect table. No estimate walks the program. The tiscc
// facade, the estimation service and both
// CLIs go through this package, so every entry point compiles and samples
// the same way and reports the same p_L.
//
// A sweep compiles one Circuit against many models, and only the
// probabilities change from point to point. So a circuit built with
// detectors keeps a decoder.Plans, and Compile takes each decoding graph
// from it: a re-weighed kept plan when one fits, a fresh plan otherwise.
// Every graph is byte-identical to a fresh decoder.CompileGraph's.
package experiment

import (
	"fmt"

	"tiscc/internal/decoder"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
	"tiscc/internal/verify"
)

// Workload and noise-model names, shared by the CLI flags, the HTTP API and
// run manifests.
const (
	Memory  = "memory"  // |0̄⟩ prepared, idled for the rounds, read out transversally
	Surgery = "surgery" // |0̄0̄⟩, 1 pre-merge round, merged Z̄Z̄ rounds, split, 1 post-split round

	ModelDepolarizing = "depolarizing" // uniform circuit-level depolarizing at rate p
	ModelTable5       = "table5"       // the paper's Table 5 trapped-ion model (p unused)
)

// Model maps a noise-model name to its model: ModelDepolarizing at physical
// error rate p, or ModelTable5 (which ignores p).
func Model(name string, p float64) (noise.Model, error) {
	switch name {
	case ModelDepolarizing:
		return noise.Depolarizing(p), nil
	case ModelTable5:
		return noise.PaperTable5(hardware.Default()), nil
	}
	return noise.Model{}, fmt.Errorf("experiment: noise model must be %q or %q, got %q", ModelDepolarizing, ModelTable5, name)
}

// Spec fully determines a compiled experiment. It is comparable, so it can
// key caches directly.
type Spec struct {
	Workload string // Memory or Surgery
	Distance int    // code distance, ≥ 2
	// Rounds counts the syndrome rounds (for Surgery: the merged-phase
	// rounds; pre and post are fixed at 1). 0 means Distance.
	Rounds int
	Model  noise.Model
}

// Validate reports the first invalid field of the spec.
func (s Spec) Validate() error {
	if s.Workload != Memory && s.Workload != Surgery {
		return fmt.Errorf("experiment: workload must be %q or %q, got %q", Memory, Surgery, s.Workload)
	}
	if s.Distance < 2 {
		return fmt.Errorf("experiment: distance must be ≥ 2, got %d", s.Distance)
	}
	if s.Rounds < 0 {
		return fmt.Errorf("experiment: rounds must be ≥ 0 (0 = distance), got %d", s.Rounds)
	}
	return s.Model.Validate()
}

// NumRounds is the round count the spec compiles to: Rounds, or Distance
// when Rounds is 0.
func (s Spec) NumRounds() int {
	if s.Rounds == 0 {
		return s.Distance
	}
	return s.Rounds
}

// depolarizingP reports the physical error rate when the spec's model is the
// depolarizing preset.
func (s Spec) depolarizingP() (float64, bool) {
	return s.Model.P1, s.Model == noise.Depolarizing(s.Model.P1)
}

// String labels the spec the way tiscc-serve's progress stream names an
// estimate: "memory d=3 p=0.003", or the model name for non-depolarizing
// models.
func (s Spec) String() string {
	if p, ok := s.depolarizingP(); ok {
		return fmt.Sprintf("%s d=%d p=%g", s.Workload, s.Distance, p)
	}
	return fmt.Sprintf("%s d=%d %s", s.Workload, s.Distance, s.Model.Name)
}

// Circuit is the noise-independent half of a compiled experiment: the
// workload circuit, its logical outcome and, when built for decoding, its
// detector structure. A sweep builds it once per (workload, distance,
// rounds) and compiles it against each noise model.
//
// A circuit built with detectors also keeps the decoding-graph plans its
// compiles built, safe for concurrent compiles (see the package doc);
// copies share them.
type Circuit struct {
	Spec      Spec // Rounds resolved (never 0); Model set by Compile only
	Prog      *orqcs.Program
	Outcome   expr.Expr          // the logical outcome as an XOR of records
	Reference bool               // the outcome's value on Prog's reference trace
	Detectors *decoder.Detectors // nil unless built with detectors

	plans *decoder.Plans // nil unless built with detectors
}

// Compiled is a compiled experiment: a circuit with a noise model's fault
// schedule and, for decoded runs, its decoding graph — everything an
// estimate needs.
type Compiled struct {
	Circuit
	Sched *noise.Schedule
	Graph *decoder.Graph // the decoding graph; nil for raw-readout runs
}

// Compile lowers a spec into a runnable experiment: Build's circuit, then
// Circuit.Compile's fault schedule and, when decode is set, decoding graph.
// sp, when non-nil, records the stages as the "compile", "noise-compile"
// and "decoder-compile" spans.
func Compile(s Spec, decode bool, sp *telemetry.Spans) (*Compiled, error) {
	c, err := Build(s, decode, sp)
	if err != nil {
		return nil, err
	}
	return c.Compile(s.Model, decode, sp)
}

// Build compiles the spec's workload circuit and outcome formula, and its
// detector structure when detectors is set; the spec's Model is ignored.
// sp, when non-nil, records the stage as the "compile" span.
func Build(s Spec, detectors bool, sp *telemetry.Spans) (*Circuit, error) {
	s.Model, s.Rounds = noise.Model{}, s.NumRounds()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Circuit{Spec: s}
	defer sp.Start("compile")()
	if s.Workload == Surgery {
		surg, err := verify.SurgeryExperiment(s.Distance, 1, s.Rounds, 1, pauli.Z)
		if err != nil {
			return nil, err
		}
		c.Prog, c.Outcome, c.Reference = surg.Prog, surg.Outcome, surg.Reference
		if detectors {
			c.Detectors, err = decoder.ExtractSurgery(surg)
			c.plans = decoder.NewPlans(c.Detectors)
		}
		return c, err
	}
	mem, err := verify.MemoryExperiment(s.Distance, s.Rounds, pauli.Z)
	if err != nil {
		return nil, err
	}
	c.Prog, c.Outcome, c.Reference = mem.Prog, mem.Outcome, mem.Reference
	if detectors {
		c.Detectors, err = decoder.Extract(mem)
		c.plans = decoder.NewPlans(c.Detectors)
	}
	return c, err
}

// Compile flattens noise model m over the circuit into a fault schedule and,
// when decode is set, compiles the union-find decoding graph from the
// detectors Build extracted, re-weighing a kept plan when one fits. sp,
// when non-nil, records the stages as the "noise-compile" and
// "decoder-compile" spans.
func (c *Circuit) Compile(m noise.Model, decode bool, sp *telemetry.Spans) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if decode && c.Detectors == nil {
		return nil, fmt.Errorf("experiment: %s d=%d: circuit built without detectors cannot decode", c.Spec.Workload, c.Spec.Distance)
	}
	cc := &Compiled{Circuit: *c}
	cc.Spec.Model = m
	endNoise := sp.Start("noise-compile")
	cc.Sched = noise.Compile(m, c.Prog)
	endNoise()
	if decode {
		var err error
		endGraph := sp.Start("decoder-compile")
		cc.Graph, err = c.plans.Graph(cc.Sched)
		endGraph()
		if err != nil {
			return nil, err
		}
	}
	return cc, nil
}

// PlanBytes returns the memory the circuit's kept plans hold
// (decoder.Plans.Bytes).
func (c *Circuit) PlanBytes() int {
	if c.plans == nil {
		return 0
	}
	return c.plans.Bytes()
}

// Estimate estimates the compiled experiment's logical error rate (see the
// package-level Estimate); shots are judged by the decoding graph when the
// experiment was compiled with one, by opt.Decoder or the raw readout
// otherwise.
func (c *Compiled) Estimate(opt noise.Options) (noise.Result, error) {
	if c.Graph != nil {
		opt.Decoder = c.Graph
	}
	return Estimate(c.Sched, c.Outcome, c.Reference, opt)
}

// Estimate runs noise.EstimateLogicalError on the Pauli-frame sampler of s,
// or on opt.Sampler when the caller supplies one. Programs with T gates are
// rejected (frame.New needs a noiseless reference trace, and the estimator
// refuses their weighted quasi-probability records).
func Estimate(s *noise.Schedule, outcome expr.Expr, reference bool, opt noise.Options) (noise.Result, error) {
	if opt.Sampler == nil {
		sim, err := frame.New(s.Program(), s)
		if err != nil {
			return noise.Result{}, err
		}
		opt.Sampler = sim
	}
	return noise.EstimateLogicalError(s, outcome, reference, opt)
}

// EstimateOp Monte-Carlo-estimates ⟨op⟩ over a compiled program, under sched
// when it is non-nil: on the Pauli-frame sampler for Clifford programs, on
// the inverse tableau's weighted quasi-probability T branches otherwise
// (an expectation carries the branch weights; an error count cannot).
func EstimateOp(prog *orqcs.Program, sched *noise.Schedule, op orqcs.SitePauli, shots int, seed int64, workers int) (mean, stderr float64, err error) {
	ops := []orqcs.SitePauli{op}
	var means, stderrs []float64
	if prog.Clifford() {
		var sim *frame.Sim
		if sim, err = frame.New(prog, sched); err == nil {
			means, stderrs, err = sim.EstimateMany(ops, shots, seed, workers)
		}
	} else {
		var run orqcs.ShotFunc
		if sched != nil {
			run = sched.RunShot
		}
		means, stderrs, err = orqcs.EstimateMany(prog, run, ops, shots, seed, workers)
	}
	if err != nil {
		return 0, 0, err
	}
	return means[0], stderrs[0], nil
}
