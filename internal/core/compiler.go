package core

import (
	"fmt"

	"tiscc/internal/circuit"
	"tiscc/internal/expr"
	"tiscc/internal/f2"
	"tiscc/internal/grid"
	"tiscc/internal/hardware"
	"tiscc/internal/pauli"
	"tiscc/internal/tableau"
)

// Compiler owns a grid, a hardware circuit builder, and the symbolic
// outcome tracker for one compilation session. LogicalQubits are created on
// the compiler and primitive operations are appended through their methods;
// Build() then yields the master hardware circuit (paper Appendix B usage
// pattern: initialize GridManager → add LogicalQubits → append primitives →
// print circuit / resource counts).
type Compiler struct {
	G *grid.Grid
	B *hardware.Builder
	// TR is the symbolic tracker: a stabilizer tableau over one qubit slot
	// per grid cell, whose measurement outcomes are the hardware circuit's
	// record indices.
	TR *tableau.T

	cellRows, cellCols int

	// dataIons[Qubit(cell)] is the ion resting at cell's data site, or
	// noIon.
	dataIons []hardware.Ion
	measIons map[grid.Site]hardware.Ion

	// knownOps logs every operator the compiler measured or prepared, in
	// order. A suffix of this log (everything after a channel mark) is the
	// input-independent knowledge generated by an operation itself, used by
	// OutputImage to resolve Heisenberg images.
	knownOps []*pauli.String

	// proved[m] is the operator measure ion m's last syndrome measurement
	// was proved deterministic for, and the tracker's change count then
	// (see trackMeasure).
	proved []proof
	// path is the scratch route of the measure-ion path helpers; MoveAlong
	// does not keep it.
	path []grid.Site
}

// proof records an operator the tracker proved deterministic and the
// tracker's change count (tableau.T.Changes) at the time.
type proof struct {
	at uint64
	op *pauli.String
}

// NewCompiler creates a compiler over a grid of cellRows × cellCols
// repeating units.
func NewCompiler(cellRows, cellCols int, p hardware.Params) *Compiler {
	g := grid.New(cellRows, cellCols)
	c := &Compiler{
		G:        g,
		B:        hardware.NewBuilder(g, p),
		cellRows: cellRows,
		cellCols: cellCols,
		measIons: map[grid.Site]hardware.Ion{},
	}
	c.dataIons = make([]hardware.Ion, c.NumQubits())
	for i := range c.dataIons {
		c.dataIons[i] = noIon
	}
	c.TR = tableau.New(c.NumQubits(), nil)
	return c
}

// NumQubits returns the tracker qubit count: one slot per cell that can
// host a data qubit (cell rows 0..cellRows, cell cols 0..cellCols-1).
func (c *Compiler) NumQubits() int { return (c.cellRows + 1) * c.cellCols }

// Qubit maps a cell to its tracker qubit index.
func (c *Compiler) Qubit(cell Cell) int {
	if cell.R < 0 || cell.R > c.cellRows || cell.C < 0 || cell.C >= c.cellCols {
		panic(fmt.Sprintf("core: cell %v outside grid", cell))
	}
	return cell.R*c.cellCols + cell.C
}

// virtualID allocates a fresh negative record id marking a symbolically
// unknown bit (used by non-Clifford state injection).
func (c *Compiler) virtualID() int32 { return c.TR.VirtualID() }

// logKnown appends an operator to the compiler's knowledge log.
func (c *Compiler) logKnown(p *pauli.String) { c.knownOps = append(c.knownOps, p) }

// MarkChannelStart returns a mark delimiting the knowledge an upcoming
// operation will generate; pass it to OutputImage so that Heisenberg images
// are resolved only through the operation's own measurements and
// preparations (never through input-state knowledge).
func (c *Compiler) MarkChannelStart() int { return len(c.knownOps) }

// noIon marks a data cell with no ion in Compiler.dataIons.
const noIon hardware.Ion = -1

// dataIon returns (creating on demand) the ion resting at a cell's data
// site.
func (c *Compiler) dataIon(cell Cell) hardware.Ion {
	q := c.Qubit(cell)
	if ion := c.dataIons[q]; ion != noIon {
		return ion
	}
	ion := c.B.MustAddIon(grid.DataSite(cell.R, cell.C))
	c.dataIons[q] = ion
	return ion
}

// moveDataIon records that the ion at cell from now rests at cell to.
func (c *Compiler) moveDataIon(from, to Cell) {
	c.dataIons[c.Qubit(to)] = c.dataIons[c.Qubit(from)]
	c.dataIons[c.Qubit(from)] = noIon
}

// measIon returns (creating on demand) the measure ion homed at a site.
func (c *Compiler) measIon(home grid.Site) hardware.Ion {
	if ion, ok := c.measIons[home]; ok {
		return ion
	}
	ion := c.B.MustAddIon(home)
	c.measIons[home] = ion
	return ion
}

// NewLogicalQubit allocates an uninitialized logical tile region for a
// patch of X distance dx and Z distance dz with data origin at the given
// cell (which must leave one cell row above for top-boundary measure
// qubits, i.e. origin.R ≥ 1).
func (c *Compiler) NewLogicalQubit(dx, dz int, origin Cell) (*LogicalQubit, error) {
	if dx < 2 || dz < 2 {
		return nil, fmt.Errorf("core: distances must be ≥ 2 (got dx=%d dz=%d)", dx, dz)
	}
	if origin.R < 1 {
		return nil, fmt.Errorf("core: patch origin row must be ≥ 1 (top boundary measure qubits)")
	}
	if origin.C < 1 {
		return nil, fmt.Errorf("core: patch origin col must be ≥ 1 (Swap Left margin)")
	}
	lq := &LogicalQubit{C: c, Origin: origin, Rows: dz, Cols: dx, Arr: Standard}
	// Bounds check: bottom boundary junctions and the north-east seats of
	// the right boundary plaquettes must exist.
	if origin.R+dz > c.cellRows || 4*(origin.C+dx)+1 > c.G.MaxC() {
		return nil, fmt.Errorf("core: patch does not fit on grid")
	}
	for _, cell := range lq.DataCells() {
		c.dataIon(cell)
	}
	return lq, nil
}

// --- Syndrome extraction -----------------------------------------------------

// RoundResult maps each measured plaquette to its record index.
type RoundResult struct {
	Records map[Face]int32
	Plaqs   []*Plaquette
}

// stationPath returns the movement path from the measure ion's current
// position to the given seat, staging through the plaquette's own arm. It
// writes the path into c.path.
func (c *Compiler) stationPath(p *Plaquette, from grid.Site, seat grid.Site) []grid.Site {
	armTop := p.Home                                  // (rowN+1, jc)
	armMid := grid.Site{R: p.Home.R + 1, C: p.Home.C} // O site
	armBot := grid.Site{R: p.Home.R + 2, C: p.Home.C} // M site
	north := seat.R == p.JN.R
	path := append(c.path[:0], from)
	cur := from
	push := func(s grid.Site) {
		if s != cur {
			path = append(path, s)
			cur = s
		}
	}
	if north {
		// Stage at armTop, hop JN to seat.
		switch from {
		case armBot:
			push(armMid)
			push(armTop)
		case armTop:
		default:
			panic(fmt.Sprintf("core: measure ion at unexpected station %v", from))
		}
		push(p.JN)
		push(seat)
	} else {
		switch from {
		case armTop:
			push(armMid)
			push(armBot)
		case armBot:
		default:
			panic(fmt.Sprintf("core: measure ion at unexpected station %v", from))
		}
		push(p.JS)
		push(seat)
	}
	c.path = path
	return path
}

// returnPath brings the measure ion from a seat back to its staging arm
// station (armTop for north seats, armBot for south seats). It writes the
// path into c.path.
func (c *Compiler) returnPath(p *Plaquette, seat grid.Site) []grid.Site {
	if seat.R == p.JN.R {
		c.path = append(c.path[:0], seat, p.JN, p.Home)
	} else {
		c.path = append(c.path[:0], seat, p.JS, grid.Site{R: p.Home.R + 2, C: p.Home.C})
	}
	return c.path
}

// homePath returns the ion to its home station after the round. It writes
// the path into c.path.
func (c *Compiler) homePath(p *Plaquette, from grid.Site) []grid.Site {
	armMid := grid.Site{R: p.Home.R + 1, C: p.Home.C}
	armBot := grid.Site{R: p.Home.R + 2, C: p.Home.C}
	switch from {
	case p.Home:
		c.path = append(c.path[:0], from)
	case armBot:
		c.path = append(c.path[:0], armBot, armMid, p.Home)
	default:
		panic(fmt.Sprintf("core: ion at unexpected station %v", from))
	}
	return c.path
}

// trackMeasure measures op, the plaquette operator of measure ion m, on the
// symbolic tracker under record rec. A deterministic measurement changes
// nothing in the tracker, so when the tracker has not changed since op was
// last proved deterministic for m (an idle or merged round after the
// first), the stabilizer scan is skipped.
func (c *Compiler) trackMeasure(m hardware.Ion, op *pauli.String, rec int32) {
	for int(m) >= len(c.proved) {
		c.proved = append(c.proved, proof{})
	}
	pr := &c.proved[m]
	if pr.op != nil && pr.at == c.TR.Changes() && pr.op.Equal(op) {
		return
	}
	if c.TR.Measure(op, rec) {
		*pr = proof{c.TR.Changes(), op}
	}
}

// SyndromeRound compiles one round of syndrome extraction over the given
// plaquettes (hardware circuit + symbolic tracker measurement), returning
// the per-plaquette record indices. stabOf must produce the plaquette's
// operator over tracker qubits (normally LogicalQubit.StabilizerString).
func (c *Compiler) SyndromeRound(plaqs []*Plaquette, stabOf func(*Plaquette) *pauli.String) (*RoundResult, error) {
	type mstate struct {
		ion hardware.Ion
	}
	ions := make([]mstate, len(plaqs))
	for k, p := range plaqs {
		ion := c.measIon(p.Home)
		if c.B.Pos(ion) != p.Home {
			// Bring a stray measure ion home (possible after Swap Left).
			if err := c.moveIonTo(ion, p.Home); err != nil {
				return nil, err
			}
		}
		ions[k] = mstate{ion: ion}
		c.B.Prepare(ion)
		c.B.Hadamard(ion)
	}
	// Step-major emission keeps interactions on shared data qubits and
	// shared seats correctly ordered (Sec 3.3 movement patterns).
	for step := 0; step < 4; step++ {
		for k, p := range plaqs {
			var v *Visit
			for idx := range p.Visits {
				if p.Visits[idx].Step == step {
					v = &p.Visits[idx]
					break
				}
			}
			if v == nil {
				continue
			}
			m := ions[k].ion
			if err := c.B.MoveAlong(m, c.stationPath(p, c.B.Pos(m), v.Seat)); err != nil {
				return nil, fmt.Errorf("core: plaquette %v step %d: %w", p.Face, step, err)
			}
			d := c.dataIon(v.Data)
			switch p.Type {
			case pauli.Z:
				if err := c.B.CZ(m, d); err != nil {
					return nil, err
				}
			case pauli.X:
				if err := c.B.CNOT(m, d); err != nil {
					return nil, err
				}
			}
			if err := c.B.MoveAlong(m, c.returnPath(p, v.Seat)); err != nil {
				return nil, err
			}
		}
	}
	res := &RoundResult{Records: map[Face]int32{}, Plaqs: plaqs}
	for k, p := range plaqs {
		m := ions[k].ion
		if err := c.B.MoveAlong(m, c.homePath(p, c.B.Pos(m))); err != nil {
			return nil, err
		}
		c.B.Hadamard(m)
		rec := c.B.Measure(m)
		res.Records[p.Face] = rec
		op := stabOf(p)
		c.trackMeasure(m, op, rec)
		c.logKnown(op)
	}
	return res, nil
}

// moveIonTo routes an ion to a target site avoiding currently occupied
// sites (BFS over the rail network).
func (c *Compiler) moveIonTo(ion hardware.Ion, target grid.Site) error {
	from := c.B.Pos(ion)
	if from == target {
		return nil
	}
	blocked := func(s grid.Site) bool {
		return c.B.Occupied(s) && s != from
	}
	path, err := c.G.Path(from, target, blocked)
	if err != nil {
		return err
	}
	return c.B.MoveAlong(ion, path)
}

// --- Transversal primitives (Table 2) ---------------------------------------

// registerObservables (re)binds the tracker observables for the patch's
// default-edge logical operators.
func (lq *LogicalQubit) registerObservables() {
	lq.hx = lq.C.TR.AddObservable(lq.geoRep(LogicalX))
	lq.hz = lq.C.TR.AddObservable(lq.geoRep(LogicalZ))
	lq.obsValid = true
}

// TransversalPrepareZ initializes every data qubit to |0⟩ (the Prepare Z
// primitive; 0 logical time-steps). The tile becomes initialized but is not
// fault-tolerantly prepared until a subsequent round of error correction.
func (lq *LogicalQubit) TransversalPrepareZ() {
	c := lq.C
	for _, cell := range lq.DataCells() {
		c.B.Prepare(c.dataIon(cell))
		c.TR.Reset(c.Qubit(cell))
		c.logKnown(pauli.Single(c.NumQubits(), c.Qubit(cell), pauli.Z))
	}
	lq.Initialized = true
	lq.registerObservables()
}

// TransversalPrepareX initializes every data qubit to |+⟩.
func (lq *LogicalQubit) TransversalPrepareX() {
	c := lq.C
	for _, cell := range lq.DataCells() {
		ion := c.dataIon(cell)
		c.B.Prepare(ion)
		c.B.Hadamard(ion)
		q := c.Qubit(cell)
		c.TR.Reset(q)
		c.TR.H(q)
		c.logKnown(pauli.Single(c.NumQubits(), q, pauli.X))
	}
	lq.Initialized = true
	lq.registerObservables()
}

// TransversalMeasure measures every data qubit in the given basis (Z or X)
// and marks the tile uninitialized. It returns the per-cell records.
func (lq *LogicalQubit) TransversalMeasure(basis pauli.Kind) (map[Cell]int32, error) {
	if basis != pauli.Z && basis != pauli.X {
		return nil, fmt.Errorf("core: transversal measurement basis must be X or Z")
	}
	c := lq.C
	recs := map[Cell]int32{}
	for _, cell := range lq.DataCells() {
		ion := c.dataIon(cell)
		q := c.Qubit(cell)
		if basis == pauli.X {
			c.B.Hadamard(ion)
			c.TR.H(q)
		}
		rec := c.B.Measure(ion)
		recs[cell] = rec
		c.TR.Measure(pauli.Single(c.NumQubits(), q, pauli.Z), rec)
		c.logKnown(pauli.Single(c.NumQubits(), q, basis))
	}
	lq.Initialized = false
	lq.obsValid = false
	return recs, nil
}

// TransversalHadamard applies a Hadamard to every data qubit, exchanging
// the roles of the X and Z stabilizers: the patch is left in the
// arrangement with S toggled (standard ↔ rotated; paper Sec 2.4, 3.3).
func (lq *LogicalQubit) TransversalHadamard() {
	c := lq.C
	for _, cell := range lq.DataCells() {
		c.B.Hadamard(c.dataIon(cell))
		c.TR.H(c.Qubit(cell))
	}
	lq.Arr = lq.Arr.Hadamard()
	lq.invalidateGeometry()
	// The patch's logical Z̄ is the Heisenberg image of the old X̄ and vice
	// versa (H X̄ H = Z̄), so the tracker handles swap roles.
	lq.hx, lq.hz = lq.hz, lq.hx
}

// ApplyPauli applies the logical Pauli operator by physical single-qubit
// gates along the default-edge representative (Table 2: apply_pauli).
func (lq *LogicalQubit) ApplyPauli(k LogicalKind) {
	c := lq.C
	apply := func(rep *pauli.String) {
		for _, cell := range lq.DataCells() {
			q := c.Qubit(cell)
			switch rep.Kind(q) {
			case pauli.X:
				c.B.Gate1(circuit.XPi2, c.dataIon(cell))
				c.TR.X(q)
			case pauli.Z:
				c.B.Gate1(circuit.ZPi2, c.dataIon(cell))
				c.TR.Z(q)
			case pauli.Y:
				c.B.Gate1(circuit.YPi2, c.dataIon(cell))
				c.TR.Y(q)
			}
		}
	}
	switch k {
	case LogicalX, LogicalZ:
		apply(lq.geoRep(k))
	case LogicalY:
		// Ȳ up to global phase: apply X̄ then Z̄ representatives.
		apply(lq.geoRep(LogicalX))
		apply(lq.geoRep(LogicalZ))
	}
	// The applied Pauli deliberately flips the anticommuting logicals; fold
	// a compensating sign into their trackers so LogicalValueOf keeps
	// reporting the current-frame value (the flip is the operation's effect,
	// not a frame correction).
	if lq.obsValid {
		if k == LogicalX || k == LogicalY {
			c.TR.ObservableXorSign(lq.hz, expr.One())
		}
		if k == LogicalZ || k == LogicalY {
			c.TR.ObservableXorSign(lq.hx, expr.One())
		}
	}
}

// RefreshLogical rebinds one logical operator's tracker to a fresh frame:
// the current geometric representative with zero correction. Used when a
// previous joint measurement destroyed the operator's lineage (e.g. the
// ancilla's X̄ after a Z̄Z̄ measurement) and a subsequent operation measures
// it anew — the raw-record frame of standard lattice-surgery protocols.
func (lq *LogicalQubit) RefreshLogical(k LogicalKind) {
	h := lq.C.TR.AddObservable(lq.geoRep(k))
	if k == LogicalX {
		lq.hx = h
	} else {
		lq.hz = h
	}
}

// TrackPauliFrame folds a classically-controlled logical Pauli into the
// patch's software Pauli frame: the anticommuting logical operators' value
// formulas pick up the controlling expression. This is how lattice-surgery
// byproduct operators are handled without physical gates (paper Secs 2.2,
// 4.5).
func (lq *LogicalQubit) TrackPauliFrame(k LogicalKind, e expr.Expr) {
	if !lq.obsValid {
		return
	}
	if k == LogicalX || k == LogicalY {
		lq.C.TR.ObservableXorSign(lq.hz, e)
	}
	if k == LogicalZ || k == LogicalY {
		lq.C.TR.ObservableXorSign(lq.hx, e)
	}
}

// InjectKind selects the non-fault-tolerant state injection target.
type InjectKind uint8

// Injection targets: |Y⟩ = S|+⟩ and |T⟩ = T|+⟩ (Table 1: Inject Y/T).
const (
	InjectY InjectKind = iota
	InjectT
)

// InjectState initializes an uninitialized tile to |Y⟩ or |T⟩
// non-fault-tolerantly (Table 2: inject_state; 0 logical time-steps). The
// corner data qubit (0,0) receives the injected state; the rest of row 0 is
// prepared in the horizontal logical operator's basis and the rest of
// column 0 in the vertical one's, making the logical Bloch vector equal the
// injected qubit's without any syndrome measurement.
func (lq *LogicalQubit) InjectState(k InjectKind) {
	c := lq.C
	vertKind := pauli.Z
	if !lq.Arr.VerticalIsZ() {
		vertKind = pauli.X
	}
	horizKind := pauli.X
	if vertKind == pauli.X {
		horizKind = pauli.Z
	}
	for _, cell := range lq.DataCells() {
		i, j := cell.R-lq.Origin.R, cell.C-lq.Origin.C
		ion := c.dataIon(cell)
		q := c.Qubit(cell)
		c.B.Prepare(ion)
		c.TR.Reset(q)
		switch {
		case i == 0 && j == 0:
			// |+⟩ then the diagonal rotation.
			c.B.Hadamard(ion)
			c.TR.H(q)
			if k == InjectY {
				c.B.Gate1(circuit.ZPi4, ion)
				c.TR.S(q)
			} else {
				c.B.Gate1(circuit.ZPi8, ion)
				// The tracker cannot represent the T rotation; mark the
				// corner's X and Y values as symbolically unknown so that no
				// downstream formula claims knowledge of them.
				c.TR.ConditionalPauli(pauli.Single(c.NumQubits(), q, pauli.Z), expr.FromID(c.virtualID()))
			}
		case i == 0: // rest of row 0: horizontal logical basis
			if horizKind == pauli.X {
				c.B.Hadamard(ion)
				c.TR.H(q)
			}
		case j == 0: // rest of column 0: vertical logical basis
			if vertKind == pauli.X {
				c.B.Hadamard(ion)
				c.TR.H(q)
			}
		default:
			// Interior qubits: |0⟩ when the face northwest of the qubit is
			// immaterial; any fixed product state works since the logical
			// operators avoid the interior. Use |0⟩.
		}
	}
	lq.Initialized = true
	lq.registerObservables()
}

// Idle performs `rounds` cycles of error correction over the patch
// (Table 2: idle; one logical time-step = dt rounds).
func (lq *LogicalQubit) Idle(rounds int) ([]*RoundResult, error) {
	var out []*RoundResult
	for r := 0; r < rounds; r++ {
		res, err := lq.C.SyndromeRound(lq.Plaquettes(), lq.StabilizerString)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// --- Logical value plumbing --------------------------------------------------

// ErrUndetermined reports that a logical operator has no independent value
// formula in the current frame — e.g. after a joint X̄X̄ measurement the
// individual Z̄s are determined only as a product (their expectations are
// zero). Callers verify ⟨rep⟩ = 0 instead.
var ErrUndetermined = fmt.Errorf("core: logical operator not independently determined")

// LogicalValue describes how to obtain the value of a logical operator:
// measure (or compute expectations of) the Rep operator over data-qubit
// sites, then XOR the Sign expression (true = flip).
type LogicalValue struct {
	Kind LogicalKind
	Rep  *pauli.String // over tracker qubit indices
	Sign expr.Expr
}

// LogicalValueOf returns the current default-edge representative of a
// logical operator together with the accumulated sign correction that maps
// a measurement of the representative back to the value of the logical
// operator as registered at initialization (paper Sec 4.5 post-processing).
func (lq *LogicalQubit) LogicalValueOf(k LogicalKind) (LogicalValue, error) {
	if !lq.obsValid {
		return LogicalValue{}, fmt.Errorf("core: logical observables not registered (uninitialized tile)")
	}
	c := lq.C
	if k == LogicalY {
		vx, err := lq.LogicalValueOf(LogicalX)
		if err != nil {
			return LogicalValue{}, err
		}
		vz, err := lq.LogicalValueOf(LogicalZ)
		if err != nil {
			return LogicalValue{}, err
		}
		y := lq.geoRep(LogicalY)
		return LogicalValue{Kind: k, Rep: y, Sign: vx.Sign.Xor(vz.Sign)}, nil
	}
	h := lq.hx
	if k == LogicalZ {
		h = lq.hz
	}
	tracked, corr := c.TR.Observable(h)
	geo := lq.geoRep(k)
	if tracked.Equal(geo) {
		return LogicalValue{Kind: k, Rep: geo, Sign: corr}, nil
	}
	// geo = tracked · D with D in the stabilizer group: value(tracked) =
	// value(geo) ⊕ value(D).
	d := pauli.Product(tracked, geo)
	ok, e := c.TR.Expectation(d)
	if !ok {
		return LogicalValue{Kind: k, Rep: geo}, ErrUndetermined
	}
	return LogicalValue{Kind: k, Rep: geo, Sign: corr.Xor(e)}, nil
}

// LogicalTerm selects one logical operator of one patch for a joint query.
type LogicalTerm struct {
	LQ   *LogicalQubit
	Kind LogicalKind
}

// buildJoint assembles the tracked and geometric product representatives
// and the accumulated frame corrections for a set of logical terms.
func (c *Compiler) buildJoint(terms []LogicalTerm) (trackedProd, geoProd *pauli.String, sign expr.Expr, err error) {
	if len(terms) == 0 {
		return nil, nil, expr.Expr{}, fmt.Errorf("core: empty joint query")
	}
	trackedProd = pauli.NewString(c.NumQubits())
	geoProd = pauli.NewString(c.NumQubits())
	sign = expr.Zero()
	for _, t := range terms {
		lq := t.LQ
		if !lq.obsValid {
			return nil, nil, expr.Expr{}, fmt.Errorf("core: logical observables not registered")
		}
		kinds := []LogicalKind{t.Kind}
		if t.Kind == LogicalY {
			kinds = []LogicalKind{LogicalX, LogicalZ}
		}
		for _, k := range kinds {
			h := lq.hx
			if k == LogicalZ {
				h = lq.hz
			}
			tr, corr := c.TR.Observable(h)
			trackedProd.Mul(tr)
			sign = sign.Xor(corr)
		}
		geoProd.Mul(lq.geoRep(t.Kind))
		if t.Kind == LogicalY {
			// tracked product used X̄·Z̄ = −i·Ȳ; align phases with geoRep's
			// i·X̄·Z̄ convention.
			trackedProd.Phase = (trackedProd.Phase + 1) % 4
		}
	}
	return trackedProd, geoProd, sign, nil
}

// JointLogicalValue returns the measurement recipe for a product of logical
// operators over several patches (e.g. Z̄aZ̄b after a Bell-pair creation).
// Products can be determined even when the individual factors are not.
func (c *Compiler) JointLogicalValue(terms []LogicalTerm) (LogicalValue, error) {
	trackedProd, geoProd, sign, err := c.buildJoint(terms)
	if err != nil {
		return LogicalValue{}, err
	}
	if trackedProd.Equal(geoProd) {
		return LogicalValue{Rep: geoProd, Sign: sign}, nil
	}
	d := pauli.Product(trackedProd, geoProd)
	ok, e := c.TR.Expectation(d)
	if !ok {
		return LogicalValue{Rep: geoProd}, ErrUndetermined
	}
	return LogicalValue{Rep: geoProd, Sign: sign.Xor(e)}, nil
}

// JointLogicalOutcome returns the value formula of a product of logical
// operators whose value is fixed by the measurements performed so far (e.g.
// the X̄X̄ outcome right after a merge). It errors when the product is not
// determined.
func (c *Compiler) JointLogicalOutcome(terms []LogicalTerm) (expr.Expr, error) {
	trackedProd, _, sign, err := c.buildJoint(terms)
	if err != nil {
		return expr.Expr{}, err
	}
	ok, f := c.TR.Expectation(trackedProd)
	if !ok {
		return expr.Expr{}, ErrUndetermined
	}
	return sign.Xor(f), nil
}

// RelateOutput relates reading an output operator now to the value a
// product of registered input logical operators had when the patches were
// initialized: reading `out` equals value(∏ inputTerms) ⊕ frame. Process
// verification uses it with the *ideal* channel's Heisenberg image as
// inputTerms: if the relation resolves and the frame-corrected simulator
// values match the prepared input eigenvalues over a complete input basis,
// the compiled operation implements the ideal channel.
func (c *Compiler) RelateOutput(out *pauli.String, inputTerms []LogicalTerm) (expr.Expr, error) {
	trackedProd, _, corrs, err := c.buildJoint(inputTerms)
	if err != nil {
		return expr.Expr{}, err
	}
	d := pauli.Product(trackedProd, out)
	if !d.Hermitian() {
		return expr.Expr{}, ErrUndetermined
	}
	ok, e := c.TR.Expectation(d)
	if !ok {
		return expr.Expr{}, ErrUndetermined
	}
	return corrs.Xor(e), nil
}

// OutputImage expresses the measurement of an output operator (given as a
// geometric Pauli over tracker qubits) in terms of the registered input
// logical observables: reading `out` now equals reading the product of the
// masked input operators at registration time, up to the returned frame
// expression. This is the compiler's Heisenberg picture of a compiled
// operation and the backbone of process verification: a compiled unitary is
// correct iff every output generator's image is the ideal conjugated input
// operator with a consistent frame.
//
// The mask is solved over the input observables plus input-independent code
// stabilizers (codeGens, normally the involved patches' plaquettes), so the
// image is a property of the operation, not of the encoded input state.
func (c *Compiler) OutputImage(out *pauli.String, basis []LogicalTerm, mark int) (mask []bool, frame expr.Expr, err error) {
	codeGens := c.knownOps[mark:]
	type cand struct {
		content *pauli.String
		corr    expr.Expr
	}
	cands := make([]cand, len(basis))
	for i, t := range basis {
		if !t.LQ.obsValid {
			return nil, expr.Expr{}, fmt.Errorf("core: observables not registered")
		}
		h := t.LQ.hx
		if t.Kind == LogicalZ {
			h = t.LQ.hz
		}
		if t.Kind == LogicalY {
			return nil, expr.Expr{}, fmt.Errorf("core: image basis must use X and Z generators")
		}
		p, corr := c.TR.Observable(h)
		cands[i] = cand{p, corr}
	}
	// Solve out = ∏cands^mask · ∏codeGens over the symplectic F2 space.
	n2 := 2 * c.NumQubits()
	rows := make([][]bool, 0, len(cands)+len(codeGens))
	toVec := func(p *pauli.String) []bool {
		v := make([]bool, n2)
		for q := 0; q < p.N; q++ {
			v[q] = p.XBits.Get(q)
			v[c.NumQubits()+q] = p.ZBits.Get(q)
		}
		return v
	}
	for _, cd := range cands {
		rows = append(rows, toVec(cd.content))
	}
	for _, g := range codeGens {
		rows = append(rows, toVec(g))
	}
	m := f2.FromRows(rows)
	sel, ok := m.Solve(toVec(out))
	if !ok {
		return nil, expr.Expr{}, ErrUndetermined
	}
	mask = make([]bool, len(cands))
	prod := pauli.NewString(c.NumQubits())
	frame = expr.Zero()
	for _, i := range sel {
		if i < len(cands) {
			mask[i] = true
			prod.Mul(cands[i].content)
			frame = frame.Xor(cands[i].corr)
		}
	}
	// D = ∏tracked(mask) · out lies in the knowledge group; its value
	// completes the frame. Phases: reading out = reading prod ⊕ value(D),
	// with Hermitian bookkeeping handled by the expectation query.
	d := pauli.Product(prod, out)
	if !d.Hermitian() {
		return nil, expr.Expr{}, ErrUndetermined
	}
	okD, e := c.TR.Expectation(d)
	if !okD {
		return nil, expr.Expr{}, ErrUndetermined
	}
	return mask, frame.Xor(e), nil
}

// SitePauli converts a tracker-indexed Pauli string into a site-keyed map
// (for simulator expectation queries) plus the operator's intrinsic sign.
func (c *Compiler) SitePauli(p *pauli.String) (map[grid.Site]pauli.Kind, bool) {
	m := map[grid.Site]pauli.Kind{}
	for q := 0; q < p.N; q++ {
		k := p.Kind(q)
		if k == pauli.I {
			continue
		}
		cell := Cell{q / c.cellCols, q % c.cellCols}
		m[grid.DataSite(cell.R, cell.C)] = k
	}
	return m, p.Sign() == -1
}

// Build returns the master hardware circuit compiled so far.
func (c *Compiler) Build() *circuit.Circuit { return c.B.Build() }
