package main

import (
	"fmt"

	"tiscc/internal/decoder"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/serve"
	"tiscc/internal/verify"
)

// spec is one estimate specification: the workload circuit, its noise model
// and whether shots are union-find decoded or read out raw.
type spec struct {
	surgery bool // ZZ merge/split (pre 1, merge rounds, post 1) instead of memory
	d       int
	rounds  int    // memory rounds, or merged rounds for surgery
	model   string // serve.ModelDepolarizing or serve.ModelTable5
	p       float64
	decoded bool
}

// pipeline is a compiled spec: everything an estimate needs.
type pipeline struct {
	prog      *orqcs.Program
	outcome   expr.Expr
	reference bool
	dets      *decoder.Detectors
	sched     *noise.Schedule
	graph     *decoder.Graph // nil for raw readout
	sim       *frame.Sim     // nil until withSampler
}

// compile runs the set-up layers in order — experiment, detector
// extraction, noise compile and, for decoded specs, DEM compile — each call
// in a span under parent. It is the path cmd/tiscc-bench and internal/serve
// take, written against the layers' public functions rather than the tiscc
// facade.
func compile(s spec, tr *tracer, parent int) (*pipeline, error) {
	pl := &pipeline{}
	var err error
	_, end := tr.start(parent, "verify.experiment")
	var sur *verify.Surgery
	var mem *verify.Memory
	if s.surgery {
		sur, err = verify.SurgeryExperiment(s.d, 1, s.rounds, 1, pauli.Z)
	} else {
		mem, err = verify.MemoryExperiment(s.d, s.rounds, pauli.Z)
	}
	end()
	if err != nil {
		return nil, err
	}
	_, end = tr.start(parent, "decoder.extract")
	if s.surgery {
		pl.prog, pl.outcome, pl.reference = sur.Prog, sur.Outcome, sur.Reference
		pl.dets, err = decoder.ExtractSurgery(sur)
	} else {
		pl.prog, pl.outcome, pl.reference = mem.Prog, mem.Outcome, mem.Reference
		pl.dets, err = decoder.Extract(mem)
	}
	end()
	if err != nil {
		return nil, err
	}
	var model noise.Model
	switch s.model {
	case serve.ModelDepolarizing:
		model = noise.Depolarizing(s.p)
	case serve.ModelTable5:
		model = noise.PaperTable5(hardware.Default())
	default:
		return nil, fmt.Errorf("unknown noise model %q", s.model)
	}
	_, end = tr.start(parent, "noise.compile")
	pl.sched = noise.Compile(model, pl.prog)
	end()
	if s.decoded {
		_, end = tr.start(parent, "decoder.dem_compile")
		pl.graph, err = decoder.CompileGraph(pl.dets, pl.sched)
		end()
		if err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// withSampler adds the frame sampler, in its own span.
func (pl *pipeline) withSampler(tr *tracer, parent int) error {
	_, end := tr.start(parent, "frame.setup")
	defer end()
	var err error
	pl.sim, err = frame.New(pl.prog, pl.sched)
	return err
}

// estimate runs one estimate request: frame.New's sampler plus the decoder
// in noise.Options, as every production path does. The tiscc facade's
// decoded estimate leaves Sampler nil and samples on the tableau, so it is
// deliberately not used.
func (pl *pipeline) estimate(shots int, seed int64, workers int) (noise.Result, error) {
	opt := noise.Options{Shots: shots, Seed: seed, Workers: workers, Sampler: pl.sim}
	if pl.graph != nil {
		opt.Decoder = pl.graph
	}
	return noise.EstimateLogicalError(pl.sched, pl.outcome, pl.reference, opt)
}
