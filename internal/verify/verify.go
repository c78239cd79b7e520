// Package verify orchestrates the verification workflows of TISCC Sec 4:
// compiled hardware circuits are executed on the quasi-Clifford simulator
// (internal/orqcs) and the results are reduced — with the compiler's
// measurement-record formulas — to logical-subspace state and process
// tomography, which is compared against ideal expectations. This mirrors
// the paper's TISCC↔ORQCS verification loop.
package verify

import (
	"fmt"

	"tiscc/internal/circuit"
	"tiscc/internal/core"
	"tiscc/internal/expr"
	"tiscc/internal/hardware"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/tomo"
)

// PrepKind selects a verified logical state preparation.
type PrepKind int

// Input preparations (the informationally complete set plus |1⟩ and |T⟩).
const (
	PrepZero PrepKind = iota
	PrepOne
	PrepPlus
	PrepMinus
	PrepY
	PrepT
)

func (p PrepKind) String() string {
	return [...]string{"|0>", "|1>", "|+>", "|->", "|Y>", "|T>"}[p]
}

// Ideal returns the prepared state's Bloch vector.
func (p PrepKind) Ideal() tomo.Bloch {
	switch p {
	case PrepZero:
		return tomo.StateZero
	case PrepOne:
		return tomo.StateOne
	case PrepPlus:
		return tomo.StatePlus
	case PrepMinus:
		return tomo.Bloch{-1, 0, 0}
	case PrepY:
		return tomo.StateYPos
	case PrepT:
		return tomo.StateT
	}
	panic("bad prep")
}

// OneTileOp selects a verified one-tile operation.
type OneTileOp int

// One-tile operations verified by process tomography (paper Sec 4.3).
const (
	OpIdle OneTileOp = iota
	OpHadamard
	OpPauliX
	OpPauliY
	OpPauliZ
	OpFlipPatch
	OpMoveRightSwapLeft
	OpExtendContract
)

func (o OneTileOp) String() string {
	return [...]string{"Idle", "Hadamard", "PauliX", "PauliY", "PauliZ",
		"FlipPatch", "MoveRight+SwapLeft", "Extend+Contract"}[o]
}

// Ideal returns the operation's ideal logical channel.
func (o OneTileOp) Ideal() tomo.Channel {
	switch o {
	case OpHadamard:
		return tomo.IdealHadamard
	case OpPauliX:
		return tomo.IdealPauliX
	case OpPauliY:
		return tomo.IdealPauliY
	case OpPauliZ:
		return tomo.IdealPauliZ
	}
	return tomo.IdealIdentity
}

// newPatch builds a compiler and patch sized for one-tile operations
// (including extension and translation headroom).
func newPatch(dx, dz int, arr core.Arrangement) (*core.Compiler, *core.LogicalQubit, error) {
	c := core.NewCompiler(dz+8, dx+7, hardware.Default())
	lq, err := c.NewLogicalQubit(dx, dz, core.Cell{R: 1, C: 2})
	if err != nil {
		return nil, nil, err
	}
	lq.SetArrangement(arr)
	return c, lq, nil
}

// prepare compiles the input state preparation (Clifford preps only; use
// InjectTBloch for |T⟩).
func prepare(lq *core.LogicalQubit, p PrepKind) error {
	switch p {
	case PrepZero:
		lq.TransversalPrepareZ()
	case PrepOne:
		lq.TransversalPrepareZ()
		lq.ApplyPauli(core.LogicalX)
	case PrepPlus:
		lq.TransversalPrepareX()
	case PrepMinus:
		lq.TransversalPrepareX()
		lq.ApplyPauli(core.LogicalZ)
	case PrepY:
		lq.InjectState(core.InjectY)
	case PrepT:
		lq.InjectState(core.InjectT)
	default:
		return fmt.Errorf("verify: unsupported preparation %v", p)
	}
	return nil
}

// BlochOf evaluates the corrected logical Bloch vector of a patch on a
// finished simulation run (0 components for undetermined operators, after
// checking the simulator agrees).
func BlochOf(c *core.Compiler, lq *core.LogicalQubit, eng *orqcs.Engine) (tomo.Bloch, error) {
	var b tomo.Bloch
	for i, k := range []core.LogicalKind{core.LogicalX, core.LogicalY, core.LogicalZ} {
		lv, err := lq.LogicalValueOf(k)
		site, neg := c.SitePauli(lv.Rep)
		v, eerr := eng.Expectation(site)
		if eerr != nil {
			return b, eerr
		}
		switch {
		case err == core.ErrUndetermined:
			if v != 0 {
				return b, fmt.Errorf("verify: %v undetermined but simulator gives %v", k, v)
			}
		case err != nil:
			return b, err
		default:
			if neg {
				v = -v
			}
			if lv.Sign.HasVirtual() {
				// Value depends on an injected unknown — expectation is the
				// raw simulator value (uncorrectable single shot).
				return b, fmt.Errorf("verify: %v depends on virtual records", k)
			}
			if lv.Sign.Eval(eng.Records()) {
				v = -v
			}
		}
		b[i] = v
	}
	return b, nil
}

// StatePrep compiles a state preparation (optionally followed by a round of
// syndrome extraction), simulates it and returns the measured logical Bloch
// vector (paper Sec 4.2).
func StatePrep(dx, dz int, arr core.Arrangement, p PrepKind, withRound bool, seed int64) (tomo.Bloch, error) {
	c, lq, err := newPatch(dx, dz, arr)
	if err != nil {
		return tomo.Bloch{}, err
	}
	if err := prepare(lq, p); err != nil {
		return tomo.Bloch{}, err
	}
	if withRound {
		if _, err := lq.Idle(1); err != nil {
			return tomo.Bloch{}, err
		}
	}
	prog, err := orqcs.Compile(c.Build())
	if err != nil {
		return tomo.Bloch{}, err
	}
	eng := orqcs.NewFromProgram(prog)
	eng.RunShot(seed)
	return BlochOf(c, lq, eng)
}

// applyOp compiles a one-tile operation onto an initialized patch.
func applyOp(lq *core.LogicalQubit, op OneTileOp, rounds int) error {
	switch op {
	case OpIdle:
		_, err := lq.Idle(rounds)
		return err
	case OpHadamard:
		lq.TransversalHadamard()
		_, err := lq.Idle(rounds)
		return err
	case OpPauliX:
		lq.ApplyPauli(core.LogicalX)
	case OpPauliY:
		lq.ApplyPauli(core.LogicalY)
	case OpPauliZ:
		lq.ApplyPauli(core.LogicalZ)
	case OpFlipPatch:
		return lq.FlipPatch(rounds)
	case OpMoveRightSwapLeft:
		if err := lq.MoveRight(rounds); err != nil {
			return err
		}
		return lq.SwapLeft()
	case OpExtendContract:
		if _, err := lq.ExtendDown(2, rounds); err != nil {
			return err
		}
		_, err := lq.ContractFromBottom(2)
		return err
	}
	return nil
}

// OneTileChannel reconstructs the logical channel of a one-tile operation
// by single-qubit process tomography over the informationally complete
// input set (paper Sec 4.3). Expectations are exact, so the result should
// equal the ideal channel exactly for correct compilations.
func OneTileChannel(dx, dz int, arr core.Arrangement, op OneTileOp, rounds int, seed int64) (tomo.Channel, error) {
	outs := make([]tomo.Bloch, 4)
	for i, p := range []PrepKind{PrepZero, PrepOne, PrepPlus, PrepY} {
		c, lq, err := newPatch(dx, dz, arr)
		if err != nil {
			return tomo.Channel{}, err
		}
		if err := prepare(lq, p); err != nil {
			return tomo.Channel{}, err
		}
		if err := applyOp(lq, op, rounds); err != nil {
			return tomo.Channel{}, fmt.Errorf("%v on %v input: %w", op, p, err)
		}
		prog, err := orqcs.Compile(c.Build())
		if err != nil {
			return tomo.Channel{}, err
		}
		eng := orqcs.NewFromProgram(prog)
		eng.RunShot(seed + int64(i))
		outs[i], err = BlochOf(c, lq, eng)
		if err != nil {
			return tomo.Channel{}, fmt.Errorf("%v on %v input: %w", op, p, err)
		}
	}
	return tomo.FromInputs(outs[0], outs[1], outs[2], outs[3]), nil
}

// InjectTBloch estimates the Bloch vector of the injected |T⟩ state by
// quasi-probability Monte-Carlo sampling (paper Sec 4.1/4.2: verification
// is statistical because of the single non-Clifford gate). Returns the
// estimated vector and the per-component standard errors.
//
// The injection circuit is compiled once and dead-code-eliminated against
// the three logical representatives; all three Pauli components are then
// evaluated against every shot of a single multi-shot pass, so the per-shot
// simulation cost is paid once rather than once per component. Results are
// deterministic in (dx, dz, shots, seed) regardless of worker count.
func InjectTBloch(dx, dz int, shots int, seed int64) (mean, stderr tomo.Bloch, err error) {
	c, lq, err := newPatch(dx, dz, core.Standard)
	if err != nil {
		return mean, stderr, err
	}
	lq.InjectState(core.InjectT)
	prog, err := orqcs.Compile(c.Build())
	if err != nil {
		return mean, stderr, err
	}
	ops := make([]orqcs.SitePauli, 3)
	negs := make([]bool, 3)
	for i, k := range []core.LogicalKind{core.LogicalX, core.LogicalY, core.LogicalZ} {
		ops[i], negs[i] = c.SitePauli(lq.GeoRep(k))
	}
	if prog, err = prog.Eliminate(ops...); err != nil {
		return mean, stderr, err
	}
	means, stderrs, err := orqcs.EstimateMany(prog, nil, ops, shots, seed, 0)
	if err != nil {
		return mean, stderr, err
	}
	for i := range ops {
		mean[i], stderr[i] = means[i], stderrs[i]
		if negs[i] {
			mean[i] = -mean[i]
		}
	}
	return mean, stderr, nil
}

// Memory is a compiled logical-memory experiment: a patch prepared in a
// logical eigenstate, idled for a number of error-correction rounds, and
// transversally measured, together with the Sec 4.5 record formula that
// decodes the logical outcome from the measurement records and the
// outcome's noiseless reference value. It is the standard workload of
// logical-error-rate estimation: run Prog under a noise schedule, evaluate
// Outcome against each shot's records, and count disagreements with
// Reference.
type Memory struct {
	Prog      *orqcs.Program
	Outcome   expr.Expr // logical outcome as an XOR of measurement records
	Reference bool      // the outcome's value on the program's noiseless reference trace
	Distance  int
	Rounds    int
	Basis     pauli.Kind

	// RoundRecords holds, per syndrome-extraction round, the plaquette →
	// record-index table of that round. Together with DataRecords it is the
	// raw material of detector extraction (internal/decoder): consecutive
	// rounds of the same plaquette XOR into space-time detectors.
	RoundRecords []*core.RoundResult
	// DataRecords maps each data cell to the record index of its final
	// transversal measurement.
	DataRecords map[core.Cell]int32
}

// lower lowers the compiler's circuit straight from its builder's blocks in
// time order (orqcs.Lower), copying no event. Only when built is non-nil is
// the hardware circuit gathered, and handed to it first.
func lower(c *core.Compiler, built func(*circuit.Circuit)) (*orqcs.Program, error) {
	if built != nil {
		built(c.Build())
	}
	return orqcs.Lower(c.B.TimeOrdered())
}

// MemoryExperiment compiles a distance-d memory experiment: |0̄⟩ prepared
// transversally (basis Z; basis X prepares |+̄⟩), rounds cycles of syndrome
// extraction, then a transversal measurement of every data qubit in the
// same basis. The logical outcome formula folds the patch's accumulated
// frame corrections into the parity of the measured representative, so
// evaluating it against any (noisy or noiseless) shot's record table yields
// that shot's decoded logical outcome.
func MemoryExperiment(d, rounds int, basis pauli.Kind) (*Memory, error) {
	return memoryExperiment(d, rounds, basis, nil)
}

// memoryExperiment is MemoryExperiment; built, when non-nil, receives the
// hardware circuit before it is lowered.
func memoryExperiment(d, rounds int, basis pauli.Kind, built func(*circuit.Circuit)) (*Memory, error) {
	if basis != pauli.Z && basis != pauli.X {
		return nil, fmt.Errorf("verify: memory basis must be X or Z")
	}
	if rounds < 0 {
		return nil, fmt.Errorf("verify: memory experiment needs rounds ≥ 0, got %d", rounds)
	}
	c := core.NewCompiler(d+2, d+3, hardware.Default())
	lq, err := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
	if err != nil {
		return nil, err
	}
	kind := core.LogicalZ
	if basis == pauli.X {
		kind = core.LogicalX
		lq.TransversalPrepareX()
	} else {
		lq.TransversalPrepareZ()
	}
	var roundRecs []*core.RoundResult
	if rounds > 0 {
		if roundRecs, err = lq.Idle(rounds); err != nil {
			return nil, err
		}
	}
	lv, err := lq.LogicalValueOf(kind)
	if err != nil {
		return nil, err
	}
	recs, err := lq.TransversalMeasure(basis)
	if err != nil {
		return nil, err
	}
	// The raw readout recipe of the logical operator (paper Sec 4.5): XOR
	// the transversal records on the representative's support, fold in the
	// accumulated frame correction and the representative's sign. The
	// symbolic tracker's own value formula is deliberately NOT used here —
	// it simplifies against its knowledge of the ideal state (the noiseless
	// logical value is a constant), which would erase exactly the record
	// dependence a noisy shot must be judged by.
	outcome := lv.Sign
	if lv.Rep.Sign() < 0 {
		outcome = outcome.XorConst(true)
	}
	covered := 0
	//tiscc:nondeterministic expr.Xor keeps a sorted, canonical record-ID set, so the folded outcome is iteration-order independent
	for cell, rec := range recs {
		if lv.Rep.Kind(c.Qubit(cell)) != pauli.I {
			outcome = outcome.Xor(expr.FromID(rec))
			covered++
		}
	}
	if covered != lv.Rep.Weight() {
		return nil, fmt.Errorf("verify: logical %v support not fully measured (%d of %d sites)",
			kind, covered, lv.Rep.Weight())
	}
	if outcome.HasVirtual() {
		return nil, fmt.Errorf("verify: outcome formula references virtual records: %v", outcome)
	}
	prog, err := lower(c, built)
	if err != nil {
		return nil, err
	}
	ref, err := prog.Reference()
	if err != nil {
		return nil, err
	}
	return &Memory{
		Prog:         prog,
		Outcome:      outcome,
		Reference:    outcome.EvalWords(ref.Words) != 0,
		Distance:     d,
		Rounds:       rounds,
		Basis:        basis,
		RoundRecords: roundRecs,
		DataRecords:  recs,
	}, nil
}

// Surgery is a compiled two-patch lattice-surgery experiment: two
// distance-d patches prepared transversally in the same logical basis,
// idled for Pre rounds each, merged for Merge rounds (measuring the joint
// X̄X̄ or Z̄Z̄ operator of paper Sec 2.3), split, idled for Post rounds and
// transversally measured in the preparation basis. It is the decodable
// surgery workload behind Table 3 resource estimates: Outcome is the
// joint-parity observable — the final B̄aB̄b readout folded with the merge
// outcome and every accumulated frame correction — whose noiseless value is
// deterministic even when the merge outcome itself is random, so noisy
// shots can be judged against Reference exactly like memory experiments.
//
// The per-region record tables (pre-merge per patch, merged, post-split per
// patch, plus the seam and final transversal readouts) are the raw material
// of region-aware detector extraction (internal/decoder.ExtractSurgery):
// stabilizer histories survive the merge (boundary plaquettes grow by
// absorbing freshly prepared seam qubits), new seam-crossing plaquettes of
// the measured type carry the joint outcome, and the split retires seam
// stabilizers against the transversal seam measurement.
type Surgery struct {
	Prog      *orqcs.Program
	Outcome   expr.Expr // joint parity: final B̄aB̄b readout ⊕ merge outcome
	Reference bool      // the outcome's value on the program's noiseless reference trace
	Distance  int
	Pre       int        // syndrome rounds per patch before the merge
	Merge     int        // rounds of the merged patch
	Post      int        // syndrome rounds per patch after the split
	Basis     pauli.Kind // preparation/readout basis; the joint operator's type
	SeamBasis pauli.Kind // basis the seam qubits are prepared and measured in
	Vertical  bool       // vertical merge (X̄X̄) vs horizontal (Z̄Z̄)

	// Region record tables, in execution order.
	PreA, PreB   []*core.RoundResult // pre-merge rounds of each patch
	MergedRounds []*core.RoundResult // rounds of the merged patch
	PostA, PostB []*core.RoundResult // post-split rounds of each patch
	// SeamRecords maps each seam cell to its transversal split measurement.
	SeamRecords map[core.Cell]int32
	// DataRecords maps each data cell of both patches to its final
	// transversal measurement.
	DataRecords map[core.Cell]int32
	// OriginA and OriginB anchor the patches' (patch-relative) plaquette
	// faces in absolute grid coordinates; the merged patch shares OriginA.
	OriginA, OriginB core.Cell
	// MergeOutcome is the joint logical measurement's record formula.
	MergeOutcome expr.Expr
}

// SurgeryExperiment compiles a distance-d two-patch merge/split cycle in
// the given basis: basis Z prepares |0̄0̄⟩ and merges horizontally
// (measuring Z̄Z̄), basis X prepares |+̄+̄⟩ and merges vertically (measuring
// X̄X̄). In both cases the merged joint operator matches the preparation, so
// the joint-parity outcome — final joint readout XOR merge outcome — is
// deterministic and the experiment is a decodable logical-error workload.
// Set-up reads Reference off the noiseless reference trace; the exact
// proof that the joint parity is deterministic runs where an estimate
// compiles it (noise.CompileEffects).
func SurgeryExperiment(d, pre, merge, post int, basis pauli.Kind) (*Surgery, error) {
	return surgeryExperiment(d, pre, merge, post, basis, nil)
}

// surgeryExperiment is SurgeryExperiment; built, when non-nil, receives the
// hardware circuit before it is lowered.
func surgeryExperiment(d, pre, merge, post int, basis pauli.Kind, built func(*circuit.Circuit)) (*Surgery, error) {
	if basis != pauli.Z && basis != pauli.X {
		return nil, fmt.Errorf("verify: surgery basis must be X or Z")
	}
	if pre < 0 || merge < 1 || post < 1 {
		return nil, fmt.Errorf("verify: surgery needs pre ≥ 0, merge ≥ 1 and post ≥ 1 rounds")
	}
	gap := 1
	if d%2 == 0 {
		gap = 2
	}
	// Vertical merges measure X̄X̄, horizontal ones Z̄Z̄ (paper Sec 2.3);
	// matching the merge direction to the preparation basis keeps the joint
	// outcome deterministic.
	vertical := basis == pauli.X
	var c *core.Compiler
	var a, b *core.LogicalQubit
	var err error
	if vertical {
		c = core.NewCompiler(2*(d+gap)+2, d+4, hardware.Default())
		a, err = c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		if err == nil {
			b, err = c.NewLogicalQubit(d, d, core.Cell{R: 1 + d + gap, C: 1})
		}
	} else {
		c = core.NewCompiler(d+2, 2*(d+gap)+4, hardware.Default())
		a, err = c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		if err == nil {
			b, err = c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1 + d + gap})
		}
	}
	if err != nil {
		return nil, err
	}
	kind := core.LogicalZ
	if basis == pauli.X {
		kind = core.LogicalX
	}
	for _, lq := range []*core.LogicalQubit{a, b} {
		if basis == pauli.X {
			lq.TransversalPrepareX()
		} else {
			lq.TransversalPrepareZ()
		}
	}
	s := &Surgery{
		Distance: d, Pre: pre, Merge: merge, Post: post,
		Basis: basis, SeamBasis: pauli.X, Vertical: vertical,
		OriginA: a.Origin, OriginB: b.Origin,
	}
	if vertical {
		s.SeamBasis = pauli.Z
	}
	for r := 0; r < pre; r++ {
		ra, err := a.Idle(1)
		if err != nil {
			return nil, err
		}
		rb, err := b.Idle(1)
		if err != nil {
			return nil, err
		}
		s.PreA = append(s.PreA, ra[0])
		s.PreB = append(s.PreB, rb[0])
	}
	m, err := core.Merge(a, b, merge)
	if err != nil {
		return nil, err
	}
	s.MergedRounds = m.Rounds
	s.MergeOutcome = m.Outcome
	sp, err := m.Split()
	if err != nil {
		return nil, err
	}
	s.SeamRecords = sp.SeamRecords
	for r := 0; r < post; r++ {
		ra, err := a.Idle(1)
		if err != nil {
			return nil, err
		}
		rb, err := b.Idle(1)
		if err != nil {
			return nil, err
		}
		s.PostA = append(s.PostA, ra[0])
		s.PostB = append(s.PostB, rb[0])
	}
	// The joint operator's post-surgery readout recipe: geometric product
	// representative plus the frame corrections the surgery accumulated (the
	// "moving observable" — the tracker rewrites each patch's logical form
	// whenever a seam preparation or measurement anticommutes with it).
	lv, err := c.JointLogicalValue([]core.LogicalTerm{{LQ: a, Kind: kind}, {LQ: b, Kind: kind}})
	if err != nil {
		return nil, fmt.Errorf("verify: joint %v%v after split: %w", kind, kind, err)
	}
	recsA, err := a.TransversalMeasure(basis)
	if err != nil {
		return nil, err
	}
	recsB, err := b.TransversalMeasure(basis)
	if err != nil {
		return nil, err
	}
	s.DataRecords = make(map[core.Cell]int32, len(recsA)+len(recsB))
	for cell, rec := range recsA {
		s.DataRecords[cell] = rec
	}
	for cell, rec := range recsB {
		s.DataRecords[cell] = rec
	}
	// Joint parity: raw readout of the joint representative (Sec 4.5), its
	// sign corrections, XOR the merge outcome. Folding the merge outcome in
	// is what keeps the observable deterministic for random merge branches.
	outcome := lv.Sign.Xor(m.Outcome)
	if lv.Rep.Sign() < 0 {
		outcome = outcome.XorConst(true)
	}
	covered := 0
	//tiscc:nondeterministic expr.Xor keeps a sorted, canonical record-ID set, so the folded outcome is iteration-order independent
	for cell, rec := range s.DataRecords {
		if lv.Rep.Kind(c.Qubit(cell)) != pauli.I {
			outcome = outcome.Xor(expr.FromID(rec))
			covered++
		}
	}
	if covered != lv.Rep.Weight() {
		return nil, fmt.Errorf("verify: joint %v%v support not fully measured (%d of %d sites)",
			kind, kind, covered, lv.Rep.Weight())
	}
	if outcome.HasVirtual() {
		return nil, fmt.Errorf("verify: outcome formula references virtual records: %v", outcome)
	}
	s.Outcome = outcome
	prog, err := lower(c, built)
	if err != nil {
		return nil, err
	}
	s.Prog = prog
	ref, err := prog.Reference()
	if err != nil {
		return nil, err
	}
	s.Reference = outcome.EvalWords(ref.Words) != 0
	return s, nil
}

// Rounds returns the experiment's total syndrome-round count across all
// three phases.
func (s *Surgery) Rounds() int { return s.Pre + s.Merge + s.Post }

// Quiescence verifies that repeated rounds of error correction leave every
// plaquette outcome unchanged after the first round (paper Sec 4.3,
// exercised there up to d = 30).
func Quiescence(d, rounds int, seed int64) error {
	c := core.NewCompiler(d+2, d+3, hardware.Default())
	lq, err := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
	if err != nil {
		return err
	}
	lq.TransversalPrepareZ()
	var results []*core.RoundResult
	for r := 0; r < rounds; r++ {
		rr, err := lq.Idle(1)
		if err != nil {
			return err
		}
		results = append(results, rr[0])
	}
	eng, err := orqcs.RunOnce(c.Build(), seed)
	if err != nil {
		return err
	}
	recs := eng.Records()
	first := results[0]
	for _, later := range results[1:] {
		//tiscc:nondeterministic existential harness check: any changed plaquette is the same fatal mismatch, and no artifact depends on which face is reported
		for face, rec := range first.Records {
			if recs[rec] != recs[later.Records[face]] {
				return fmt.Errorf("verify: plaquette %v outcome changed between rounds", face)
			}
		}
	}
	return nil
}

// MeasureJointBranch runs Measure XX (vertical=true) or Measure ZZ on two
// freshly prepared patches and verifies the branch against the expected
// conditional map: the outcome formula must match the simulator, the joint
// operator must equal the outcome, and the spectator joint operator must be
// preserved (de Beaudrap–Horsman conditional mapping, paper Sec 4.4). It
// returns the branch outcome.
func MeasureJointBranch(d int, vertical bool, seed int64) (bool, error) {
	gap := 1
	if d%2 == 0 {
		gap = 2
	}
	var c *core.Compiler
	var a, b *core.LogicalQubit
	var err error
	if vertical {
		c = core.NewCompiler(2*(d+gap)+2, d+4, hardware.Default())
		a, err = c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		if err == nil {
			b, err = c.NewLogicalQubit(d, d, core.Cell{R: 1 + d + gap, C: 1})
		}
	} else {
		c = core.NewCompiler(d+2, 2*(d+gap)+4, hardware.Default())
		a, err = c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		if err == nil {
			b, err = c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1 + d + gap})
		}
	}
	if err != nil {
		return false, err
	}
	a.TransversalPrepareZ()
	b.TransversalPrepareZ()
	m, err := core.Merge(a, b, 1)
	if err != nil {
		return false, err
	}
	if _, err := m.Split(); err != nil {
		return false, err
	}
	eng, err := orqcs.RunOnce(c.Build(), seed)
	if err != nil {
		return false, err
	}
	outcome := m.Outcome.Eval(eng.Records())
	measured := core.LogicalX
	spectator := core.LogicalZ
	if !vertical {
		measured, spectator = core.LogicalZ, core.LogicalX
	}
	joint := func(k core.LogicalKind) (float64, error) {
		lv, jerr := c.JointLogicalValue([]core.LogicalTerm{{LQ: a, Kind: k}, {LQ: b, Kind: k}})
		site, neg := c.SitePauli(lv.Rep)
		v, eerr := eng.Expectation(site)
		if eerr != nil {
			return 0, eerr
		}
		if jerr == core.ErrUndetermined {
			if v != 0 {
				return 0, fmt.Errorf("verify: undetermined joint %v with raw %v", k, v)
			}
			return 0, nil
		}
		if jerr != nil {
			return 0, jerr
		}
		if neg {
			v = -v
		}
		if lv.Sign.Eval(eng.Records()) {
			v = -v
		}
		return v, nil
	}
	vj, err := joint(measured)
	if err != nil {
		return false, err
	}
	want := 1.0
	if outcome {
		want = -1
	}
	if vj != want {
		return false, fmt.Errorf("verify: joint %v%v = %v, outcome says %v", measured, measured, vj, want)
	}
	// |0̄0̄⟩ input: Z̄Z̄ preserved for XX measurement; for ZZ measurement the
	// outcome must be deterministic +1 and X̄X̄ indefinite.
	if vertical {
		vs, err := joint(spectator)
		if err != nil {
			return false, err
		}
		if vs != 1 {
			return false, fmt.Errorf("verify: spectator Z̄Z̄ = %v, want 1", vs)
		}
	} else if outcome {
		return false, fmt.Errorf("verify: Z̄Z̄ on |0̄0̄⟩ measured −1")
	}
	return outcome, nil
}

// BellTomography prepares a Bell pair via merge/split on |0̄0̄⟩ and
// reconstructs the two-qubit logical state (paper Sec 4.2: Bell-state
// preparation verified by two-qubit state tomography with classical
// corrections from merge and split measurements). Returns the fidelity with
// the ideal outcome-conditioned Bell state.
func BellTomography(d int, seed int64) (float64, error) {
	gap := 1
	if d%2 == 0 {
		gap = 2
	}
	c := core.NewCompiler(2*(d+gap)+2, d+4, hardware.Default())
	a, err := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
	if err != nil {
		return 0, err
	}
	b, err := c.NewLogicalQubit(d, d, core.Cell{R: 1 + d + gap, C: 1})
	if err != nil {
		return 0, err
	}
	a.TransversalPrepareZ()
	b.TransversalPrepareZ()
	m, err := core.Merge(a, b, 1)
	if err != nil {
		return 0, err
	}
	if _, err := m.Split(); err != nil {
		return 0, err
	}
	eng, err := orqcs.RunOnce(c.Build(), seed)
	if err != nil {
		return 0, err
	}
	var st tomo.TwoQubitState
	kinds := []core.LogicalKind{core.LogicalX, core.LogicalY, core.LogicalZ}
	term := func(lq *core.LogicalQubit, k int) []core.LogicalTerm {
		if k == 0 {
			return nil
		}
		return []core.LogicalTerm{{LQ: lq, Kind: kinds[k-1]}}
	}
	for ka := 0; ka < 4; ka++ {
		for kb := 0; kb < 4; kb++ {
			if ka == 0 && kb == 0 {
				continue
			}
			terms := append(term(a, ka), term(b, kb)...)
			lv, jerr := c.JointLogicalValue(terms)
			site, neg := c.SitePauli(lv.Rep)
			v, eerr := eng.Expectation(site)
			if eerr != nil {
				return 0, eerr
			}
			if jerr == core.ErrUndetermined {
				if v != 0 {
					return 0, fmt.Errorf("verify: undetermined ⟨%d%d⟩ with raw %v", ka, kb, v)
				}
				v = 0
			} else if jerr != nil {
				return 0, jerr
			} else {
				if neg {
					v = -v
				}
				if lv.Sign.Eval(eng.Records()) {
					v = -v
				}
			}
			st.E[ka][kb] = v
		}
	}
	return st.PureFidelity(tomo.BellState(m.Outcome.Eval(eng.Records()))), nil
}

// GroupCheck verifies, in the spirit of the paper's d=2 low-level check
// (Sec 4.3), that after one round of syndrome extraction the simulator's
// stabilizer group contains every plaquette operator with the recorded
// sign.
func GroupCheck(d int, seed int64) error {
	c := core.NewCompiler(d+2, d+3, hardware.Default())
	lq, err := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
	if err != nil {
		return err
	}
	lq.TransversalPrepareZ()
	rr, err := lq.Idle(1)
	if err != nil {
		return err
	}
	eng, err := orqcs.RunOnce(c.Build(), seed)
	if err != nil {
		return err
	}
	for _, p := range lq.Plaquettes() {
		s := lq.StabilizerString(p)
		m, neg := c.SitePauli(s)
		v, err := eng.Expectation(m)
		if err != nil {
			return err
		}
		if neg {
			v = -v
		}
		want := 1.0
		if eng.Records()[rr[0].Records[p.Face]] {
			want = -1
		}
		if v != want {
			return fmt.Errorf("verify: plaquette %v in-group value %v, record says %v", p.Face, v, want)
		}
	}
	return nil
}
