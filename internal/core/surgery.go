package core

import (
	"fmt"

	"tiscc/internal/expr"
	"tiscc/internal/grid"
	"tiscc/internal/pauli"
)

// prepCell initializes a data cell's ion in the |0⟩ (Z) or |+⟩ (X) basis,
// mirrored in the tracker.
func (c *Compiler) prepCell(cell Cell, basis pauli.Kind) {
	ion := c.dataIon(cell)
	q := c.Qubit(cell)
	c.B.Prepare(ion)
	c.TR.Reset(q)
	if basis == pauli.X {
		c.B.Hadamard(ion)
		c.TR.H(q)
	}
	c.logKnown(pauli.Single(c.NumQubits(), q, basis))
}

// measureOutCell measures a data cell's ion in the Z or X basis, mirrored
// in the tracker, returning the record index.
func (c *Compiler) measureOutCell(cell Cell, basis pauli.Kind) int32 {
	ion := c.dataIon(cell)
	q := c.Qubit(cell)
	if basis == pauli.X {
		c.B.Hadamard(ion)
		c.TR.H(q)
	}
	rec := c.B.Measure(ion)
	c.TR.Measure(pauli.Single(c.NumQubits(), q, pauli.Z), rec)
	c.logKnown(pauli.Single(c.NumQubits(), q, basis))
	return rec
}

// MergeResult describes a compiled merge.
type MergeResult struct {
	Merged *LogicalQubit
	// Kind is the joint logical operator measured: LogicalX for vertical
	// merges (X̄X̄), LogicalZ for horizontal ones (Z̄Z̄) — paper Sec 2.3.
	Kind LogicalKind
	// Outcome is the measurement-record formula whose value is the ±1
	// outcome of the joint logical measurement (true = −1).
	Outcome expr.Expr
	Rounds  []*RoundResult
	// seam bookkeeping for the subsequent split
	seam     []Cell
	vertical bool
	a, b     *LogicalQubit
}

// Merge merges two adjacent initialized patches across the ancilla strip
// between them (Table 2: merge; one logical time-step = rounds cycles).
// Vertical merges (a above b) measure X̄X̄; horizontal merges (a left of b)
// measure Z̄Z̄. Both patches must be in the standard arrangement, the
// paper's constraint for Merge/Split (Sec 4.4).
func Merge(a, b *LogicalQubit, rounds int) (*MergeResult, error) {
	if a.C != b.C {
		return nil, fmt.Errorf("core: merge across compilers")
	}
	if !a.Initialized || !b.Initialized {
		return nil, fmt.Errorf("core: merge of uninitialized tile")
	}
	if a.Arr != Standard || b.Arr != Standard {
		return nil, fmt.Errorf("core: merge implemented for the standard arrangement only")
	}
	c := a.C
	var vertical bool
	var gap int
	switch {
	case a.Origin.C == b.Origin.C && a.Cols == b.Cols && b.Origin.R > a.Origin.R:
		vertical = true
		gap = b.Origin.R - (a.Origin.R + a.Rows)
	case a.Origin.R == b.Origin.R && a.Rows == b.Rows && b.Origin.C > a.Origin.C:
		vertical = false
		gap = b.Origin.C - (a.Origin.C + a.Cols)
	default:
		return nil, fmt.Errorf("core: patches are not mergeable neighbours")
	}
	if gap < 1 || gap > 2 {
		return nil, fmt.Errorf("core: seam width %d unsupported (expected 1 or 2)", gap)
	}
	span := a.Rows
	if !vertical {
		span = a.Cols
	}
	if (span+gap)%2 != 0 {
		return nil, fmt.Errorf("core: seam width %d breaks checkerboard parity for span %d", gap, span)
	}

	// Seam cells are prepared in the basis of the logical operator that
	// must pass continuously through the seam: |0⟩ for X̄X̄ (vertical)
	// merges, whose Z̄m = Z̄a·Z_seam·Z̄b chain must stay definite, and |+⟩
	// for Z̄Z̄ (horizontal) merges. The joint outcome itself is the product
	// of the crossing plaquette records of the measured type, in which the
	// seam contributions telescope away.
	basis := pauli.Z
	kind := LogicalX
	if !vertical {
		basis = pauli.X
		kind = LogicalZ
	}
	var seam []Cell
	if vertical {
		for g := 0; g < gap; g++ {
			for j := 0; j < a.Cols; j++ {
				seam = append(seam, Cell{a.Origin.R + a.Rows + g, a.Origin.C + j})
			}
		}
	} else {
		for g := 0; g < gap; g++ {
			for i := 0; i < a.Rows; i++ {
				seam = append(seam, Cell{a.Origin.R + i, a.Origin.C + a.Cols + g})
			}
		}
	}
	for _, cell := range seam {
		c.prepCell(cell, basis)
	}

	// A patch whose joint-measured logical was destroyed by an earlier
	// surgery gets a fresh raw-record frame for this measurement.
	for _, lq := range []*LogicalQubit{a, b} {
		if _, err := lq.LogicalValueOf(kind); err == ErrUndetermined {
			lq.RefreshLogical(kind)
		}
	}

	merged := &LogicalQubit{C: c, Origin: a.Origin, Arr: Standard, Initialized: true}
	if vertical {
		merged.Rows = a.Rows + gap + b.Rows
		merged.Cols = a.Cols
	} else {
		merged.Rows = a.Rows
		merged.Cols = a.Cols + gap + b.Cols
	}
	if err := merged.CheckCode(); err != nil {
		return nil, fmt.Errorf("core: merged patch invalid: %w", err)
	}

	res := &MergeResult{Merged: merged, Kind: kind, seam: seam, vertical: vertical, a: a, b: b}
	for r := 0; r < rounds; r++ {
		rr, err := c.SyndromeRound(merged.Plaquettes(), merged.StabilizerString)
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, rr)
	}

	// Joint outcome: the merged stabilizers fix L̄a·L̄b even when the
	// individual factors are undetermined.
	out, err := c.JointLogicalOutcome([]LogicalTerm{{LQ: a, Kind: kind}, {LQ: b, Kind: kind}})
	if err != nil {
		return nil, fmt.Errorf("core: joint %v%v not fixed by merge: %w", kind, kind, err)
	}
	res.Outcome = out

	// The merged patch inherits a's logical trackers (Z̄m ≃ Z̄a for vertical
	// merges, X̄m ≃ X̄a for horizontal ones; the other logical is rewritten
	// automatically by the tracker when its old form anticommutes with the
	// seam stabilizers).
	merged.hx, merged.hz, merged.obsValid = a.hx, a.hz, true
	a.Initialized, b.Initialized = false, false
	return res, nil
}

// SplitResult describes a compiled split.
type SplitResult struct {
	A, B        *LogicalQubit
	SeamRecords map[Cell]int32
}

// Split separates a merged patch back into its pre-merge halves (Table 2:
// split; 0 logical time-steps). The seam qubits are measured transversally
// in their preparation basis, which — thanks to the ancilla strip — leaves
// the post-split boundary stabilizers already known from merge and split
// records (paper footnote 7), so no extra error-correction cycle is needed.
func (m *MergeResult) Split() (*SplitResult, error) {
	c := m.Merged.C
	if !m.Merged.Initialized {
		return nil, fmt.Errorf("core: split of uninitialized merged patch")
	}
	basis := pauli.Z // vertical seams live in the Z basis
	if !m.vertical {
		basis = pauli.X
	}
	recs := map[Cell]int32{}
	for _, cell := range m.seam {
		recs[cell] = c.measureOutCell(cell, basis)
	}
	m.Merged.Initialized = false
	m.a.Initialized, m.b.Initialized = true, true
	m.a.obsValid, m.b.obsValid = true, true
	return &SplitResult{A: m.a, B: m.b, SeamRecords: recs}, nil
}

// SplitVertical splits a tall patch into an upper patch of rowsA data rows
// and a lower patch separated by a seam of `gap` rows, measuring the seam
// transversally in the Z basis. The upper patch keeps the original logical
// trackers; the lower patch's logical operators are freshly registered
// (used by the Extend-Split derived instruction, where the lower half is a
// newly born logical qubit).
func (lq *LogicalQubit) SplitVertical(rowsA, gap int) (*LogicalQubit, *LogicalQubit, map[Cell]int32, error) {
	return lq.splitAlong(rowsA, gap, true)
}

// SplitHorizontal splits a wide patch into a left patch of colsA data
// columns and a right patch, measuring the seam columns in the X basis.
func (lq *LogicalQubit) SplitHorizontal(colsA, gap int) (*LogicalQubit, *LogicalQubit, map[Cell]int32, error) {
	return lq.splitAlong(colsA, gap, false)
}

func (lq *LogicalQubit) splitAlong(spanA, gap int, vertical bool) (*LogicalQubit, *LogicalQubit, map[Cell]int32, error) {
	if !lq.Initialized {
		return nil, nil, nil, fmt.Errorf("core: split of uninitialized tile")
	}
	total := lq.Rows
	if !vertical {
		total = lq.Cols
	}
	if spanA < 2 || spanA+gap >= total-1 {
		return nil, nil, nil, fmt.Errorf("core: split geometry invalid (spanA=%d gap=%d total=%d)", spanA, gap, total)
	}
	if (spanA+gap)%2 != 0 {
		return nil, nil, nil, fmt.Errorf("core: split offset %d breaks checkerboard parity", spanA+gap)
	}
	c := lq.C
	basis := pauli.Z
	if !vertical {
		basis = pauli.X
	}
	recs := map[Cell]int32{}
	for g := 0; g < gap; g++ {
		if vertical {
			for j := 0; j < lq.Cols; j++ {
				cell := Cell{lq.Origin.R + spanA + g, lq.Origin.C + j}
				recs[cell] = c.measureOutCell(cell, basis)
			}
		} else {
			for i := 0; i < lq.Rows; i++ {
				cell := Cell{lq.Origin.R + i, lq.Origin.C + spanA + g}
				recs[cell] = c.measureOutCell(cell, basis)
			}
		}
	}
	a := &LogicalQubit{C: c, Origin: lq.Origin, Arr: lq.Arr, Initialized: true}
	b := &LogicalQubit{C: c, Arr: lq.Arr, Initialized: true}
	if vertical {
		a.Rows, a.Cols = spanA, lq.Cols
		b.Rows, b.Cols = total-spanA-gap, lq.Cols
		b.Origin = Cell{lq.Origin.R + spanA + gap, lq.Origin.C}
	} else {
		a.Rows, a.Cols = lq.Rows, spanA
		b.Rows, b.Cols = lq.Rows, total-spanA-gap
		b.Origin = Cell{lq.Origin.R, lq.Origin.C + spanA + gap}
	}
	// The upper/left half keeps the original patch's logical history; the
	// other half starts a fresh logical register.
	a.hx, a.hz, a.obsValid = lq.hx, lq.hz, lq.obsValid
	b.registerObservables()
	lq.Initialized = false
	lq.obsValid = false
	return a, b, recs, nil
}

// --- Patch extension / contraction (Table 3 sub-instructions) ----------------

// growBasis returns the preparation basis for region growth: extending the
// patch parallel to a logical operator prepares the new qubits in that
// operator's basis so its value is preserved exactly.
func (lq *LogicalQubit) growBasis(verticalGrowth bool) pauli.Kind {
	vertIsZ := lq.Arr.VerticalIsZ()
	if verticalGrowth {
		if vertIsZ {
			return pauli.Z
		}
		return pauli.X
	}
	if vertIsZ {
		return pauli.X
	}
	return pauli.Z
}

// ExtendDown grows the patch downward by addRows data rows (preparing the
// new region and running `rounds` cycles over the extended patch). Used by
// the Patch Extension derived instruction (Table 3).
func (lq *LogicalQubit) ExtendDown(addRows, rounds int) ([]*RoundResult, error) {
	return lq.extend(addRows, rounds, true, false)
}

// ExtendRight grows the patch rightward by addCols data columns.
func (lq *LogicalQubit) ExtendRight(addCols, rounds int) ([]*RoundResult, error) {
	return lq.extend(addCols, rounds, false, false)
}

func (lq *LogicalQubit) extend(count, rounds int, vertical, fromLow bool) ([]*RoundResult, error) {
	if !lq.Initialized {
		return nil, fmt.Errorf("core: extension of uninitialized tile")
	}
	if fromLow {
		return nil, fmt.Errorf("core: extension from the low side not implemented")
	}
	c := lq.C
	basis := lq.growBasis(vertical)
	var cells []Cell
	if vertical {
		for g := 0; g < count; g++ {
			for j := 0; j < lq.Cols; j++ {
				cells = append(cells, Cell{lq.Origin.R + lq.Rows + g, lq.Origin.C + j})
			}
		}
	} else {
		for g := 0; g < count; g++ {
			for i := 0; i < lq.Rows; i++ {
				cells = append(cells, Cell{lq.Origin.R + i, lq.Origin.C + lq.Cols + g})
			}
		}
	}
	for _, cell := range cells {
		c.prepCell(cell, basis)
	}
	if vertical {
		lq.Rows += count
	} else {
		lq.Cols += count
	}
	lq.invalidateGeometry()
	if err := lq.CheckCode(); err != nil {
		return nil, fmt.Errorf("core: extended patch invalid: %w", err)
	}
	var out []*RoundResult
	for r := 0; r < rounds; r++ {
		rr, err := c.SyndromeRound(lq.Plaquettes(), lq.StabilizerString)
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

// contractBasis returns the measurement basis for removing rows (vertical)
// or columns (horizontal): the basis of the logical operator running
// through the removed region, so that its truncation is corrected by the
// recorded outcomes.
func (lq *LogicalQubit) contractBasis(vertical bool) pauli.Kind {
	return lq.growBasis(vertical)
}

// ContractFromTop removes the top `count` data rows (transversal
// measurement in the vertical logical's basis; 0 logical time-steps). Used
// by Patch Contraction and by Move.
func (lq *LogicalQubit) ContractFromTop(count int) (map[Cell]int32, error) {
	return lq.contract(count, true, true)
}

// ContractFromBottom removes the bottom `count` data rows.
func (lq *LogicalQubit) ContractFromBottom(count int) (map[Cell]int32, error) {
	return lq.contract(count, true, false)
}

// ContractFromLeft removes the left `count` data columns.
func (lq *LogicalQubit) ContractFromLeft(count int) (map[Cell]int32, error) {
	return lq.contract(count, false, true)
}

// ContractFromRight removes the right `count` data columns.
func (lq *LogicalQubit) ContractFromRight(count int) (map[Cell]int32, error) {
	return lq.contract(count, false, false)
}

func (lq *LogicalQubit) contract(count int, vertical, fromLow bool) (map[Cell]int32, error) {
	if !lq.Initialized {
		return nil, fmt.Errorf("core: contraction of uninitialized tile")
	}
	span := lq.Rows
	if !vertical {
		span = lq.Cols
	}
	if count >= span {
		return nil, fmt.Errorf("core: contraction would consume the whole patch")
	}
	c := lq.C
	basis := lq.contractBasis(vertical)
	recs := map[Cell]int32{}
	var cells []Cell
	for g := 0; g < count; g++ {
		if vertical {
			row := lq.Origin.R + g
			if !fromLow {
				row = lq.Origin.R + lq.Rows - 1 - g
			}
			for j := 0; j < lq.Cols; j++ {
				cells = append(cells, Cell{row, lq.Origin.C + j})
			}
		} else {
			col := lq.Origin.C + g
			if !fromLow {
				col = lq.Origin.C + lq.Cols - 1 - g
			}
			for i := 0; i < lq.Rows; i++ {
				cells = append(cells, Cell{lq.Origin.R + i, col})
			}
		}
	}
	for _, cell := range cells {
		recs[cell] = c.measureOutCell(cell, basis)
	}
	if vertical {
		lq.Rows -= count
		if fromLow {
			lq.Origin.R += count
			if count%2 == 1 {
				lq.Arr = lq.Arr.Translate()
			}
		}
	} else {
		lq.Cols -= count
		if fromLow {
			lq.Origin.C += count
			if count%2 == 1 {
				lq.Arr = lq.Arr.Translate()
			}
		}
	}
	lq.invalidateGeometry()
	if err := lq.CheckCode(); err != nil {
		return nil, fmt.Errorf("core: contracted patch invalid: %w", err)
	}
	return recs, nil
}

// MoveRight performs the Move Right primitive (paper Fig 4a): a one-column
// move to the right implemented as a one-column extension, `rounds` cycles
// of the extended patch, and a one-column contraction from the left. The
// arrangement's parity bit toggles (standard ↔ rotated-flipped precursor).
// It borrows the column to the right of the patch (footnote 10).
func (lq *LogicalQubit) MoveRight(rounds int) error {
	if _, err := lq.ExtendRight(1, rounds); err != nil {
		return err
	}
	if _, err := lq.ContractFromLeft(1); err != nil {
		return err
	}
	return nil
}

// SwapLeft performs the Swap Left primitive (paper Fig 4b): every data
// qubit is transported one cell to the left using ion movement alone,
// effectively swapping the patch with the ancilla strip to its right. The
// measured-out ions left behind by a preceding Move Right are first parked
// in the western margin and finally routed around the patch to the new
// ancilla strip column. 0 logical time-steps; the encoded state is carried
// by the ions (identity process).
func (lq *LogicalQubit) SwapLeft() error {
	if !lq.Initialized {
		return fmt.Errorf("core: swap of uninitialized tile")
	}
	c := lq.C
	if lq.Origin.C < 2 {
		return fmt.Errorf("core: Swap Left needs a free margin column west of the patch")
	}
	retireeCol := lq.Origin.C - 1
	marginCol := lq.Origin.C - 2
	stripCol := lq.Origin.C + lq.Cols - 1 // strip column after the swap

	for i := 0; i < lq.Rows; i++ {
		r := lq.Origin.R + i
		// Park any retiree ion (left behind by Move Right's contraction) in
		// the margin.
		retireeSite := grid.DataSite(r, retireeCol)
		var retiree = -1
		if ion, ok := c.B.IonAt(retireeSite); ok {
			if err := c.B.MoveAlong(ion, westStep(r, retireeCol)); err != nil {
				return err
			}
			c.dataIons[c.Qubit(Cell{r, marginCol})] = ion
			c.dataIons[c.Qubit(Cell{r, retireeCol})] = noIon
			c.TR.Swap(c.Qubit(Cell{r, marginCol}), c.Qubit(Cell{r, retireeCol}))
			retiree = int(ion)
		}
		// Cascade the data ions westward, west-first.
		for j := 0; j < lq.Cols; j++ {
			cell := Cell{r, lq.Origin.C + j}
			dest := Cell{r, cell.C - 1}
			ion := c.dataIon(cell)
			if err := c.B.MoveAlong(ion, westStep(r, cell.C)); err != nil {
				return err
			}
			c.moveDataIon(cell, dest)
			c.TR.Swap(c.Qubit(dest), c.Qubit(cell))
		}
		// Route the retiree around the patch to the new strip column.
		if retiree >= 0 {
			ion := c.dataIons[c.Qubit(Cell{r, marginCol})]
			target := grid.DataSite(r, stripCol)
			if err := c.moveIonTo(ion, target); err != nil {
				return fmt.Errorf("core: retiree relocation row %d: %w", r, err)
			}
			c.moveDataIon(Cell{r, marginCol}, Cell{r, stripCol})
			c.TR.Swap(c.Qubit(Cell{r, stripCol}), c.Qubit(Cell{r, marginCol}))
		}
	}
	lq.Origin.C--
	lq.invalidateGeometry()
	return nil
}

// westStep is the path moving a data ion one cell west: two straight moves
// around one junction traversal.
func westStep(cellR, cellC int) []grid.Site {
	r := 4 * cellR
	c := 4 * cellC
	return []grid.Site{
		{R: r, C: c + 2}, // data O site
		{R: r, C: c + 1}, // west seat M
		{R: r, C: c},     // junction (hop)
		{R: r, C: c - 1}, // east M of western arm
		{R: r, C: c - 2}, // destination O site
	}
}
