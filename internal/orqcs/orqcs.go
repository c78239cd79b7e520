// Package orqcs is this repository's substitute for the Oak Ridge
// Quasi-Clifford Simulator used to verify TISCC output (paper Sec 4). It
// implements a parser and hardware model for the TISCC instruction stream:
// circuit events, written in terms of native gates acting on trapping-zone
// sites, are interpreted as unitary operations on a stabilizer state, with
// ion movement tracked so that gates always address the ion currently
// resting at a site.
//
// Non-Clifford gates (Z_{±π/8}) are handled exactly as described in Sec 4.1:
// the T-gate channel is decomposed into Clifford channels with
// quasi-probability weights,
//
//	TρT† = ½ρ − (√2−1)/2 · ZρZ + (1/√2) · SρS†   (negativity γ = √2),
//
// and each simulation shot samples one branch per non-Clifford gate,
// weighting the shot by γ·sign. Expectation values of Pauli strings are then
// Monte-Carlo averages over shots.
package orqcs

import (
	"math"
	"math/rand"
	"sort"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/pauli"
	"tiscc/internal/tableau"
	"tiscc/internal/telemetry"
)

// Engine executes shots of one compiled Program on a reusable stabilizer
// state. The tableau, its scratch storage and the record table are allocated
// once in NewFromProgram and reset in place by every RunShot, so the
// per-shot cost is pure simulation work.
type Engine struct {
	prog   *Program
	tb     tableau.State
	src    rand.Source
	rng    *rand.Rand
	weight float64
	ran    bool
	vals   []float64        // reusable multi-operator evaluation buffer
	tel    *telemetry.Shard // single-owner sampler metrics (never nil)
}

// shotSource is a SplitMix64-backed rand.Source64. Reseeding is O(1): the
// stock math/rand source refills 607 feedback registers per Seed, which
// profiles at ~25% of a whole simulation shot in the run-many loop.
type shotSource struct{ state uint64 }

func (s *shotSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *shotSource) Uint64() uint64 {
	out := SplitMix64(s.state)
	s.state += SplitMix64Gamma
	return out
}

func (s *shotSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewFromProgram prepares a reusable engine for a compiled program (all ions
// start in |0⟩). One engine runs any number of shots via RunShot; engines
// are not safe for concurrent use, but any number of engines may share one
// Program. The stabilizer state is the bit-sliced tableau.Sliced: shot
// outcomes are bit-identical to the row-major engine's
// (NewFromProgramRowMajor) for every seed, just faster.
func NewFromProgram(p *Program) *Engine {
	return newEngine(p, func(n int, rng *rand.Rand) tableau.State { return tableau.NewSliced(n, rng) })
}

// NewFromProgramRowMajor is NewFromProgram on the row-major tableau.T state:
// the reference engine, kept as the test oracle for differential
// cross-validation of the bit-sliced transpose and the Pauli-frame sampler.
func NewFromProgramRowMajor(p *Program) *Engine {
	return newEngine(p, func(n int, rng *rand.Rand) tableau.State { return tableau.New(n, rng) })
}

func newEngine(p *Program, state func(n int, rng *rand.Rand) tableau.State) *Engine {
	src := &shotSource{}
	rng := rand.New(src)
	return &Engine{prog: p, tb: state(p.n, rng), src: src, rng: rng, weight: 1,
		tel: telemetry.NewShard(SamplerSchema)}
}

// RunShot executes one simulation shot with the given RNG seed, resetting
// all reused state first. For a fixed program, the shot outcome depends only
// on the seed.
func (e *Engine) RunShot(seed int64) {
	e.BeginShot(seed)
	for i := range e.prog.instrs {
		e.Exec(&e.prog.instrs[i])
	}
}

// BeginShot resets all reused engine state (tableau, records, weight) in
// place and reseeds the RNG: the first half of RunShot, exposed so external
// executors — the noise subsystem's fault-injecting loop — can step the
// program themselves via Exec.
func (e *Engine) BeginShot(seed int64) {
	if e.ran {
		e.tb.ResetAll()
	}
	e.ran = true
	e.weight = 1
	e.src.Seed(seed)
	e.tel.Inc(CtrShots)
}

// Exec executes a single lowered instruction on the engine's state. The
// instruction must come from the engine's own program (Program.Instructions).
func (e *Engine) Exec(in *Instr) {
	q := int(in.Q1)
	switch in.Op {
	case OpPrepareZ:
		e.tb.Reset(q)
		e.tel.Inc(CtrResets)
	case OpMeasureZ:
		if e.tb.MeasureZ(q, in.Rec).Deterministic {
			e.tel.Inc(CtrMeasDet)
		} else {
			e.tel.Inc(CtrMeasRandom)
		}
	case OpX:
		e.tb.X(q)
	case OpSqrtX:
		e.tb.SqrtX(q)
	case OpSqrtXDg:
		e.tb.SqrtXDg(q)
	case OpY:
		e.tb.Y(q)
	case OpSqrtY:
		e.tb.SqrtY(q)
	case OpSqrtYDg:
		e.tb.SqrtYDg(q)
	case OpZ:
		e.tb.Z(q)
	case OpS:
		e.tb.S(q)
	case OpSdg:
		e.tb.Sdg(q)
	case OpT, OpTdg:
		e.sampleT(q, in.Op == OpT)
	case OpZZ:
		e.tb.ZZ(q, int(in.Q2))
	}
}

// scratch returns a reusable length-n float64 buffer attached to the engine
// (per-worker storage for multi-operator evaluation; no per-shot allocation).
func (e *Engine) scratch(n int) []float64 {
	if cap(e.vals) < n {
		e.vals = make([]float64, n)
	}
	return e.vals[:n]
}

// sampleT applies one quasi-probability branch of the T (or T†) channel.
func (e *Engine) sampleT(q int, positive bool) {
	const (
		pI = 0.3535533905932738  // (1/2)/√2
		pZ = 0.14644660940672624 // ((√2−1)/2)/√2
	)
	gamma := math.Sqrt2
	u := e.rng.Float64()
	switch {
	case u < pI:
		e.weight *= gamma // + sign, identity branch
	case u < pI+pZ:
		e.tb.Z(q)
		e.weight *= -gamma // negative quasi-probability branch
	default:
		if positive {
			e.tb.S(q)
		} else {
			e.tb.Sdg(q)
		}
		e.weight *= gamma
	}
}

// Records returns the measurement-record table of the most recent shot. The
// map is reused across shots: it is valid until the next RunShot on this
// engine, so copy it if it must outlive the shot.
func (e *Engine) Records() map[int32]bool { return e.tb.Records() }

// SitePauli describes a Pauli operator keyed by trapping-zone site.
type SitePauli map[grid.Site]pauli.Kind

// Sites returns the operator's support in (row, column) order. Map iteration
// order is random, so any walk whose failure mode names a site — or whose
// effects are otherwise order-sensitive — must range over this instead of
// the map itself.
func (op SitePauli) Sites() []grid.Site {
	sites := make([]grid.Site, 0, len(op))
	for s := range op {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].R != sites[j].R {
			return sites[i].R < sites[j].R
		}
		return sites[i].C < sites[j].C
	})
	return sites
}

// Expectation returns the exact expectation (+1/−1/0) of a site-keyed Pauli
// string in this shot's final state (unweighted).
func (e *Engine) Expectation(op SitePauli) (float64, error) {
	p, err := e.prog.PauliFor(op)
	if err != nil {
		return 0, err
	}
	return e.tb.ExpectationValue(p), nil
}

// Tableau exposes the underlying stabilizer state (for layer-by-layer
// verification in the style of paper Sec 4.3 and for the noise subsystem's
// Pauli frame updates).
func (e *Engine) Tableau() tableau.State { return e.tb }

// RunOnce compiles a circuit and runs a single shot; convenience
// constructor used throughout verification. For repeated shots of the same
// circuit, Compile once and reuse the engine instead.
func RunOnce(c *circuit.Circuit, seed int64) (*Engine, error) {
	p, err := Compile(c)
	if err != nil {
		return nil, err
	}
	e := NewFromProgram(p)
	e.RunShot(seed)
	return e, nil
}

// RunText parses the textual circuit form (as emitted by circuit.String)
// and runs a single shot: the parser-plus-hardware-model entry point that
// mirrors how ORQCS consumes TISCC output files.
func RunText(text string, seed int64) (*Engine, error) {
	c, err := circuit.Parse(text)
	if err != nil {
		return nil, err
	}
	return RunOnce(c, seed)
}
