// Package tiscc is a Go implementation of TISCC, the Trapped-Ion Surface
// Code Compiler and resource estimator (LeBlond, Lietz, Seck & Bennink,
// SC-W 2023, arXiv:2311.10687).
//
// TISCC generates explicit, time-resolved hardware circuits for a universal
// set of surface-code patch operations in terms of a native trapped-ion
// gate set, on an internal representation of a QCCD-style processor: an
// arbitrarily large rectangular grid of trapping zones and junctions.
// Alongside the compiler it provides a hardware resource estimator and a
// quasi-Clifford verification simulator in the style of ORQCS.
//
// # Layers
//
//   - Compiler / LogicalQubit: the patch-level primitives of paper Table 2
//     (transversal operations, rounds of error correction, merge, split,
//     corner movement, Move Right / Swap Left).
//   - Layout: the local, tile-based lattice-surgery instruction set of
//     Tables 1 and 3, with logical time-step accounting.
//   - Engine: the verification simulator (parser + hardware model +
//     stabilizer simulation with quasi-probability sampling of the
//     non-Clifford injection gate).
//   - Estimate: space-time resource estimation for compiled circuits.
//
// # Quickstart
//
//	layout, _ := tiscc.NewLayout(1, 1, 5, 5, 5, tiscc.DefaultParams())
//	layout.PrepareZ(tiscc.TileCoord{R: 0, C: 0})
//	layout.Idle(tiscc.TileCoord{R: 0, C: 0})
//	circ := layout.Circuit()
//	fmt.Println(tiscc.EstimateCircuit(circ, tiscc.DefaultParams()))
//
// See the examples directory for runnable programs.
package tiscc

import (
	"io"
	"math"

	"tiscc/internal/circuit"
	"tiscc/internal/core"
	"tiscc/internal/decoder"
	"tiscc/internal/experiment"
	"tiscc/internal/expr"
	"tiscc/internal/grid"
	"tiscc/internal/hardware"
	"tiscc/internal/instr"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/resource"
	"tiscc/internal/tomo"
	"tiscc/internal/verify"
)

// Core compiler types (paper Appendix B class structure).
type (
	// Compiler owns the grid, the hardware circuit builder and the symbolic
	// outcome tracker of one compilation session.
	Compiler = core.Compiler
	// LogicalQubit is a surface-code patch with methods compiling the
	// primitive operations of paper Table 2.
	LogicalQubit = core.LogicalQubit
	// Cell addresses one repeating unit of the trapped-ion grid.
	Cell = core.Cell
	// Arrangement identifies one of the four canonical stabilizer
	// arrangements of paper Fig 2.
	Arrangement = core.Arrangement
	// Plaquette is a stabilizer plaquette bound to hardware geometry.
	Plaquette = core.Plaquette
	// LogicalKind selects a logical Pauli operator.
	LogicalKind = core.LogicalKind
	// LogicalTerm selects one logical operator of one patch.
	LogicalTerm = core.LogicalTerm
	// LogicalValue is a measurement recipe for a logical operator.
	LogicalValue = core.LogicalValue
	// MergeResult describes a compiled lattice-surgery merge.
	MergeResult = core.MergeResult
	// InjectKind selects the non-fault-tolerant injection target state.
	InjectKind = core.InjectKind
	// RoundResult maps measured plaquettes to record indices.
	RoundResult = core.RoundResult
	// Edge names a patch boundary for corner movements.
	Edge = core.Edge
)

// Instruction-set types (paper Tables 1 and 3).
type (
	// Layout is a grid of logical tiles executing the tile-based
	// lattice-surgery instruction set.
	Layout = instr.Layout
	// TileCoord addresses a logical tile.
	TileCoord = instr.TileCoord
	// Tile is one logical tile.
	Tile = instr.Tile
	// Result reports an executed instruction (time-steps, outcomes).
	Result = instr.Result
)

// Hardware and circuit types.
type (
	// Params is the hardware timing model (paper Table 5).
	Params = hardware.Params
	// Circuit is a time-resolved native-gate circuit.
	Circuit = circuit.Circuit
	// Event is one scheduled hardware operation.
	Event = circuit.Event
	// Gate is a native trapped-ion gate: a small integer enum whose String
	// is the gate's name in the circuit text form.
	Gate = circuit.Gate
	// Site is a trapping-zone coordinate.
	Site = grid.Site
	// Grid is the trapped-ion zone/junction geometry.
	Grid = grid.Grid
	// Ion identifies a trapped ion managed by the circuit builder.
	Ion = hardware.Ion
)

// Verification types.
type (
	// Engine executes shots of a compiled Program on reusable simulator
	// state (the quasi-Clifford verification simulator).
	Engine = orqcs.Engine
	// Program is the lowered, compile-once form of a circuit: movement and
	// site bookkeeping resolved to flat qubit-indexed instructions.
	Program = orqcs.Program
	// SitePauli is a Pauli operator keyed by trapping-zone site.
	SitePauli = orqcs.SitePauli
	// Expr is a measurement-record XOR formula.
	Expr = expr.Expr
	// Estimate is a hardware resource report (paper Sec 3.4).
	Estimate = resource.Estimate
	// Bloch is a logical Bloch vector.
	Bloch = tomo.Bloch
	// Channel is an affine Bloch map (single-qubit process matrix data).
	Channel = tomo.Channel
)

// Noise-model types (stochastic Pauli fault injection and logical-error-rate
// estimation).
type (
	// NoiseModel assigns circuit-level stochastic Pauli error probabilities
	// to gate classes, plus idle dephasing and transport heating.
	NoiseModel = noise.Model
	// FaultSchedule is a noise model compiled against a lowered Program: a
	// flat per-instruction fault table sampled in the per-shot hot loop.
	FaultSchedule = noise.Schedule
	// LogicalErrorOptions configures a logical-error-rate estimation run
	// (shots, seed, workers, early-stopping target, decoder). Sampler may be
	// left nil: the facade samples on the Pauli-frame engine compiled for
	// the schedule.
	LogicalErrorOptions = noise.Options
	// LogicalErrorResult reports a logical error rate with its 95% Wilson
	// confidence interval.
	LogicalErrorResult = noise.Result
	// MemoryExperiment is a compiled logical-memory experiment with its
	// decoded-outcome formula and noiseless reference.
	MemoryExperiment = verify.Memory
	// SurgeryExperiment is a compiled two-patch lattice-surgery merge/split
	// cycle with per-region record tables and the joint-parity observable
	// (final joint readout folded with the merge outcome).
	SurgeryExperiment = verify.Surgery
)

// Decoder subsystem types (detector extraction, decoding graphs, union-find
// syndrome decoding).
type (
	// Detectors is the detector/observable structure of a compiled memory
	// experiment: space-time parity checks over measurement records plus the
	// logical observable's record set.
	Detectors = decoder.Detectors
	// DecoderGraph is a noise model's decoding graph compiled against a
	// memory experiment, with a pooled per-shot union-find decoder. It
	// implements the estimator's Decoder interface.
	DecoderGraph = decoder.Graph
)

// Canonical arrangements (paper Fig 2).
var (
	Standard       = core.Standard
	Rotated        = core.Rotated
	Flipped        = core.Flipped
	RotatedFlipped = core.RotatedFlipped
)

// Logical operator kinds.
const (
	LogicalX = core.LogicalX
	LogicalZ = core.LogicalZ
	LogicalY = core.LogicalY
)

// Native trapped-ion gates (paper Table 5), the keys of Estimate.Gates.
const (
	GatePrepareZ   = circuit.PrepareZ
	GateMeasureZ   = circuit.MeasureZ
	GateXPi2       = circuit.XPi2
	GateXPi4       = circuit.XPi4
	GateXmPi4      = circuit.XmPi4
	GateYPi2       = circuit.YPi2
	GateYPi4       = circuit.YPi4
	GateYmPi4      = circuit.YmPi4
	GateZPi2       = circuit.ZPi2
	GateZPi4       = circuit.ZPi4
	GateZmPi4      = circuit.ZmPi4
	GateZPi8       = circuit.ZPi8
	GateZmPi8      = circuit.ZmPi8
	GateZZ         = circuit.ZZ
	GateMove       = circuit.Move
	GateMergeWells = circuit.MergeWells
	GateSplitWells = circuit.SplitWells
	GateCool       = circuit.Cool
)

// Injection targets.
const (
	InjectY = core.InjectY
	InjectT = core.InjectT
)

// ErrUndetermined reports a logical operator with no independent value
// formula in the current frame.
var ErrUndetermined = core.ErrUndetermined

// DefaultParams returns the paper's Table 5 hardware timing model.
func DefaultParams() Params { return hardware.Default() }

// NewCompiler creates a compiler over a grid of cellRows × cellCols
// repeating units.
func NewCompiler(cellRows, cellCols int, p Params) *Compiler {
	return core.NewCompiler(cellRows, cellCols, p)
}

// NewLayout allocates a layout of tileRows × tileCols logical tiles with
// code distances dx, dz and time distance dt.
func NewLayout(tileRows, tileCols, dx, dz, dt int, p Params) (*Layout, error) {
	return instr.NewLayout(tileRows, tileCols, dx, dz, dt, p)
}

// Merge merges two adjacent initialized patches (vertical merges measure
// X̄X̄, horizontal ones Z̄Z̄).
func Merge(a, b *LogicalQubit, rounds int) (*MergeResult, error) { return core.Merge(a, b, rounds) }

// TileHeight and TileWidth give the logical-tile footprint in repeating
// units: 2⌈(d+1)/2⌉ (paper Sec 2.3).
func TileHeight(dz int) int { return instr.TileHeight(dz) }
func TileWidth(dx int) int  { return instr.TileWidth(dx) }

// CompileProgram lowers a circuit into its compile-once simulation form:
// the movement semantics run exactly once, and the result can be executed
// any number of times (RunProgram, EstimateBatch, RunShots) by any number
// of engines concurrently.
func CompileProgram(c *Circuit) (*Program, error) { return orqcs.Compile(c) }

// RunProgram executes one simulation shot of a compiled program on a fresh
// reusable engine and returns the engine for inspection. Call RunShot on
// the returned engine to rerun it with other seeds at zero allocation.
func RunProgram(p *Program, seed int64) *Engine {
	e := orqcs.NewFromProgram(p)
	e.RunShot(seed)
	return e
}

// EstimateBatch Monte-Carlo-estimates ⟨op⟩ over a compiled program with a
// deterministic parallel worker pool: per-shot seeds derive only from the
// base seed and shot index, so the returned mean and standard error are
// identical for every worker count (workers ≤ 0 selects GOMAXPROCS).
func EstimateBatch(p *Program, op SitePauli, shots int, seed int64, workers int) (mean, stderr float64, err error) {
	means, stderrs, err := orqcs.EstimateMany(p, nil, []SitePauli{op}, shots, seed, workers)
	if err != nil {
		return 0, 0, err
	}
	return means[0], stderrs[0], nil
}

// EstimateMany estimates several Pauli operators over one compiled program
// in a single multi-shot pass: each shot is simulated once and every
// operator is evaluated against its final state. Deterministic in
// (shots, seed) for every worker count; memory is independent of the shot
// count (streaming Kahan reduction).
func EstimateMany(p *Program, ops []SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	return orqcs.EstimateMany(p, nil, ops, shots, seed, workers)
}

// RunShots executes shots runs of a compiled program across a worker pool,
// invoking visit after each completed shot; see orqcs.RunShots for the
// engine-reuse contract.
func RunShots(p *Program, shots int, seed int64, workers int, visit func(shot int, e *Engine) error) error {
	return orqcs.RunShots(p, nil, shots, seed, workers, visit)
}

// --- Noise models and logical error rates ------------------------------------

// IdealNoise returns the noiseless model (empty fault schedules).
func IdealNoise() NoiseModel { return noise.Ideal() }

// DepolarizingNoise returns the uniform circuit-level depolarizing model:
// every gate class errs with probability p.
func DepolarizingNoise(p float64) NoiseModel { return noise.Depolarizing(p) }

// PaperNoise returns the trapped-ion noise model matched to the paper's
// Table 5 hardware parameters (literature-typical QCCD error rates, idle
// dephasing from the default T2 and the compiled schedule's idle windows).
func PaperNoise() NoiseModel { return noise.PaperTable5(hardware.Default()) }

// CompileNoise flattens a noise model against a compiled program into a
// reusable fault schedule. Idle windows recorded at program lowering time
// are converted to dephasing probabilities here, once; the schedule is then
// shared by any number of concurrent noisy shot workers.
func CompileNoise(m NoiseModel, p *Program) *FaultSchedule { return noise.Compile(m, p) }

// RunProgramNoisy executes one noisy simulation shot of a compiled program
// under the given noise model and returns the engine for inspection. It
// compiles a fresh fault schedule per call: for repeated noisy shots,
// CompileNoise once and use the schedule's RunShot / RunShots / EstimateMany.
func RunProgramNoisy(p *Program, m NoiseModel, seed int64) *Engine {
	s := noise.Compile(m, p)
	e := orqcs.NewFromProgram(p)
	s.RunShot(e, seed)
	return e
}

// CompileMemoryExperiment compiles a distance-d logical-memory experiment
// (transversal |0̄⟩ preparation, rounds cycles of error correction, then a
// transversal logical-Z readout) together with the record formula that
// decodes its logical outcome (paper Sec 4.5). rounds is literal here: 0
// compiles a memory experiment without syndrome rounds (estimate it with
// EstimateLogicalError); negative rounds are an error.
func CompileMemoryExperiment(d, rounds int) (*MemoryExperiment, error) {
	return verify.MemoryExperiment(d, rounds, pauli.Z)
}

// EstimateLogicalErrorRate estimates the logical error rate of a distance-d
// memory experiment under a noise model: fault firings are sampled on the
// Pauli-frame engine, each shot's logical outcome flip is the XOR of the
// fired faults' effects on the readout formula (no record is read), and the
// rate of flipped outcomes is reported with a 95% Wilson confidence
// interval. rounds counts
// the syndrome rounds (0 selects d; negative rounds are an error). The
// result is deterministic in (d, rounds, model, options) for every worker
// count.
func EstimateLogicalErrorRate(d, rounds int, m NoiseModel, opt LogicalErrorOptions) (LogicalErrorResult, error) {
	return estimateSpec(experiment.Memory, d, rounds, m, false, opt)
}

// estimateSpec compiles and estimates one experiment spec through the shared
// experiment pipeline, the same path as the CLIs and tiscc-serve.
func estimateSpec(workload string, d, rounds int, m NoiseModel, decode bool, opt LogicalErrorOptions) (LogicalErrorResult, error) {
	c, err := experiment.Compile(experiment.Spec{Workload: workload, Distance: d, Rounds: rounds, Model: m}, decode, nil)
	if err != nil {
		return LogicalErrorResult{}, err
	}
	return c.Estimate(opt)
}

// EstimateLogicalError runs the logical-error estimator over an
// already-compiled fault schedule and outcome formula — the lower-level
// entry point behind EstimateLogicalErrorRate, for custom experiments (a
// CompileMemoryExperiment with 0 rounds, say). Like the Estimate*Rate
// functions it samples on the Pauli-frame engine unless opt.Sampler is set
// (it must then be compiled for s). Programs with T gates are rejected:
// their quasi-probability shots carry ±√2 weights, so counting their
// records gives no error rate; estimate their weighted expectation values
// with EstimateBatch instead.
func EstimateLogicalError(s *FaultSchedule, outcome Expr, reference bool, opt LogicalErrorOptions) (LogicalErrorResult, error) {
	return experiment.Estimate(s, outcome, reference, opt)
}

// --- Syndrome decoding --------------------------------------------------------

// ExtractDetectors walks a compiled memory experiment's record tables and
// returns its detector/observable structure: per-plaquette XORs of
// consecutive syndrome rounds, preparation and readout time boundaries, and
// the logical observable's record set. Reference values are read off the
// program's noiseless reference trace; CompileDecoder and
// WriteDetectorErrorModel prove every detector deterministic.
func ExtractDetectors(mem *MemoryExperiment) (*Detectors, error) { return decoder.Extract(mem) }

// CompileDecoder compiles a noise schedule against a memory experiment into
// a union-find decoding graph: every fault branch is propagated through the
// lowered instruction stream to the detectors it flips, and the resulting
// weighted matching graph is cached for any number of concurrent shot
// workers — compile it once per (program, model), like the fault schedule.
func CompileDecoder(mem *MemoryExperiment, s *FaultSchedule) (*DecoderGraph, error) {
	det, err := decoder.Extract(mem)
	if err != nil {
		return nil, err
	}
	return decoder.CompileGraph(det, s)
}

// EstimateDecodedLogicalErrorRate is EstimateLogicalErrorRate with syndrome
// decoding: each noisy shot's detector history is union-find-decoded and the
// corrected logical outcome is compared against the noiseless reference.
// Decoded rates fall with code distance below threshold — the raw
// transversal readout's grow with it — so sweeps over d become genuine
// threshold plots. rounds follows EstimateLogicalErrorRate (0 selects d).
// Deterministic in (d, rounds, model, options) for every worker count.
func EstimateDecodedLogicalErrorRate(d, rounds int, m NoiseModel, opt LogicalErrorOptions) (LogicalErrorResult, error) {
	return estimateSpec(experiment.Memory, d, rounds, m, true, opt)
}

// WriteDetectorErrorModel writes the Stim-compatible detector error model of
// a noise schedule compiled against a memory experiment, so external
// decoders (PyMatching et al.) can consume TISCC circuits directly.
func WriteDetectorErrorModel(w io.Writer, mem *MemoryExperiment, s *FaultSchedule) error {
	g, err := CompileDecoder(mem, s)
	if err != nil {
		return err
	}
	return g.WriteDEM(w, s)
}

// --- Lattice-surgery decoding --------------------------------------------------

// CompileSurgeryExperiment compiles a distance-d two-patch ZZ-merge/split
// cycle: |0̄0̄⟩ prepared transversally, one pre-merge round per patch,
// `rounds` rounds of the horizontally merged patch measuring Z̄Z̄ (0 selects
// d; negative rounds are an error), a split, one post-split round per patch,
// and transversal Z readout of both patches. Its Outcome is the joint-parity observable — the final
// Z̄aZ̄b readout folded with the merge outcome — whose noiseless value is
// deterministic, making the surgery cycle a decodable logical-error
// workload. Use verify.SurgeryExperiment directly for the X-basis (vertical
// X̄X̄) variant or custom round structures.
func CompileSurgeryExperiment(d, rounds int) (*SurgeryExperiment, error) {
	if rounds == 0 {
		rounds = d
	}
	return verify.SurgeryExperiment(d, 1, rounds, 1, pauli.Z)
}

// ExtractSurgeryDetectors walks the per-region record tables of a compiled
// surgery experiment and returns its detector/observable structure:
// stabilizer histories stitched across the merge boundary (boundary
// plaquettes grow by absorbing seam qubits), a merge-parity detector over
// the seam-crossing plaquettes that carry the joint measurement, split
// close-out detectors folding the transversal seam records, and readout
// time boundaries per patch. As with ExtractDetectors, reference values come
// off the reference trace and CompileSurgeryDecoder proves them.
func ExtractSurgeryDetectors(s *SurgeryExperiment) (*Detectors, error) {
	return decoder.ExtractSurgery(s)
}

// CompileSurgeryDecoder compiles a noise schedule against a surgery
// experiment into a union-find decoding graph, the surgery counterpart of
// CompileDecoder: compile once per (program, model) and share across any
// number of concurrent shot workers.
func CompileSurgeryDecoder(s *SurgeryExperiment, sched *FaultSchedule) (*DecoderGraph, error) {
	det, err := decoder.ExtractSurgery(s)
	if err != nil {
		return nil, err
	}
	return decoder.CompileGraph(det, sched)
}

// EstimateDecodedSurgeryErrorRate estimates the decoded logical error rate
// of a distance-d merge/split cycle under a noise model: each noisy shot's
// detector history — stitched across the merge and split boundaries — is
// union-find-decoded and the corrected joint parity is compared against the
// noiseless reference. This extends decoded estimates from idle memory to
// the lattice-surgery instructions of paper Table 3. rounds counts the
// merged-phase rounds (0 selects d; negative rounds are an error).
// Deterministic in (d, rounds, model, options) for every worker count.
func EstimateDecodedSurgeryErrorRate(d, rounds int, m NoiseModel, opt LogicalErrorOptions) (LogicalErrorResult, error) {
	return estimateSpec(experiment.Surgery, d, rounds, m, true, opt)
}

// WriteSurgeryDetectorErrorModel writes the Stim-compatible detector error
// model of a noise schedule compiled against a surgery experiment, so
// external decoders can consume TISCC lattice-surgery workloads directly.
func WriteSurgeryDetectorErrorModel(w io.Writer, s *SurgeryExperiment, sched *FaultSchedule) error {
	g, err := CompileSurgeryDecoder(s, sched)
	if err != nil {
		return err
	}
	return g.WriteDEM(w, sched)
}

// RunCircuit executes one simulation shot of a compiled circuit (a thin
// wrapper over CompileProgram + RunProgram).
func RunCircuit(c *Circuit, seed int64) (*Engine, error) { return orqcs.RunOnce(c, seed) }

// RunCircuitText parses the textual circuit form and executes one shot (the
// ORQCS-style file interface).
func RunCircuitText(text string, seed int64) (*Engine, error) { return orqcs.RunText(text, seed) }

// EstimateExpectation Monte-Carlo-estimates a Pauli expectation for
// circuits containing non-Clifford gates (quasi-probability sampling with
// negativity γ = √2 per T gate). It is a thin wrapper that compiles the
// circuit and delegates to EstimateBatch with an automatic worker count;
// estimate several operators over one circuit via CompileProgram +
// EstimateBatch to pay compilation only once.
func EstimateExpectation(c *Circuit, op SitePauli, shots int, seed int64) (mean, stderr float64, err error) {
	p, err := orqcs.Compile(c)
	if err != nil {
		return 0, 0, err
	}
	return EstimateBatch(p, op, shots, seed, 0)
}

// EstimateCircuit computes the hardware resource report of a circuit.
func EstimateCircuit(c *Circuit, p Params) Estimate { return resource.FromCircuit(c, p) }

// ValidateCircuit re-checks a circuit against the hardware movement rules
// (the paper's validity checker).
func ValidateCircuit(g *Grid, c *Circuit) error { return hardware.Validate(g, c) }

// ParseCircuit reads the textual circuit form.
func ParseCircuit(text string) (*Circuit, error) { return circuit.Parse(text) }

// VerifyStatePrep runs the Sec 4.2 state-preparation tomography and
// returns the measured logical Bloch vector.
func VerifyStatePrep(dx, dz int, arr Arrangement, p verify.PrepKind, withRound bool, seed int64) (Bloch, error) {
	return verify.StatePrep(dx, dz, arr, p, withRound, seed)
}

// VerifyOneTileChannel runs the Sec 4.3 single-qubit process tomography of
// a one-tile operation.
func VerifyOneTileChannel(dx, dz int, arr Arrangement, op verify.OneTileOp, rounds int, seed int64) (Channel, error) {
	return verify.OneTileChannel(dx, dz, arr, op, rounds, seed)
}

// Gamma is the quasi-probability negativity of the T-gate channel
// decomposition used by the simulator (paper Sec 4.1). It is a property of
// the decomposition TρT† = ½ρ − (√2−1)/2·ZρZ + (1/√2)·SρS†, so it is a
// constant: importers cannot (and must not) mutate it.
const Gamma = math.Sqrt2
