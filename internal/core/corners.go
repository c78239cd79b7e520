package core

import (
	"fmt"

	"tiscc/internal/f2"
	"tiscc/internal/pauli"
)

// Edge names a patch boundary for corner-movement operations, in clockwise
// order starting from the top.
type Edge int

// Patch edges.
const (
	TopEdge Edge = iota
	RightEdge
	BottomEdge
	LeftEdge
)

func (e Edge) String() string { return [...]string{"top", "right", "bottom", "left"}[e] }

// hostsFor returns the hosted boundary type per edge given the set of
// converted edges.
func (lq *LogicalQubit) hostsFor(converted [4]bool) [4]pauli.Kind {
	tb, lr := lq.topBottomHalfType(), lq.leftRightHalfType()
	hosts := [4]pauli.Kind{tb, lr, tb, lr}
	for e, conv := range converted {
		if conv {
			hosts[e] = opposite(hosts[e])
		}
	}
	return hosts
}

// hostTypes returns the current hosts (with transient conversions).
func (lq *LogicalQubit) hostTypes() [4]pauli.Kind { return lq.hostsFor(lq.edgeConverted) }

func opposite(k pauli.Kind) pauli.Kind {
	if k == pauli.X {
		return pauli.Z
	}
	return pauli.X
}

// plaquettesWithHosts builds the plaquette set for the current geometry
// with explicit per-edge boundary host types and an explicit set of removed
// (inactive) cells. Faces reduced below weight 2 are dropped; weight-2
// faces created by corner removal are kept regardless of host type.
func (lq *LogicalQubit) plaquettesWithHosts(hosts [4]pauli.Kind, inactive map[Cell]pauli.Kind) []*Plaquette {
	var out []*Plaquette
	for i := -1; i < lq.Rows; i++ {
		for j := -1; j < lq.Cols; j++ {
			f := Face{i, j}
			var roles []Role
			for _, r := range lq.rolesPresent(f) {
				if _, gone := inactive[lq.roleCell(f, r)]; !gone {
					roles = append(roles, r)
				}
			}
			t := lq.faceType(f)
			switch len(roles) {
			case 4, 3:
				out = append(out, lq.buildPlaquetteRoles(f, t, roles))
			case 2:
				var want pauli.Kind
				switch {
				case i == -1:
					want = hosts[TopEdge]
				case i == lq.Rows-1:
					want = hosts[BottomEdge]
				case j == -1:
					want = hosts[LeftEdge]
				default:
					want = hosts[RightEdge]
				}
				interior := i > -1 && i < lq.Rows-1 && j > -1 && j < lq.Cols-1
				if t == want || interior || len(lq.rolesPresent(f)) > 2 {
					out = append(out, lq.buildPlaquetteRoles(f, t, roles))
				}
			}
		}
	}
	return out
}

// buildPlaquetteRoles is buildPlaquette restricted to the given roles.
func (lq *LogicalQubit) buildPlaquetteRoles(f Face, t pauli.Kind, roles []Role) *Plaquette {
	p := lq.buildPlaquette(f, t)
	var keep []Visit
	for _, v := range p.Visits {
		for _, r := range roles {
			if v.Role == r {
				keep = append(keep, v)
				break
			}
		}
	}
	p.Visits = keep
	return p
}

// commConstraint asks for a representative that commutes (Anti=false) or
// anticommutes (Anti=true) with Op.
type commConstraint struct {
	Op   *pauli.String
	Anti bool
}

// deform looks for a representative L·∏(subset of gens) satisfying every
// commutation constraint. gens must be input-independent (code stabilizers
// and recorded measurements) so the result is valid for arbitrary encoded
// states.
func deform(L *pauli.String, gens []*pauli.String, cons []commConstraint) (*pauli.String, bool) {
	target := make([]bool, len(cons))
	need := false
	for k, cst := range cons {
		anti := !L.Commutes(cst.Op)
		if anti != cst.Anti {
			target[k] = true
			need = true
		}
	}
	if !need {
		return L.Clone(), true
	}
	a := f2.NewMatrix(len(gens), len(cons))
	for i, g := range gens {
		for k, cst := range cons {
			if !g.Commutes(cst.Op) {
				a.Set(i, k, true)
			}
		}
	}
	sel, ok := a.Solve(target)
	if !ok {
		return nil, false
	}
	rep := L.Clone()
	for _, i := range sel {
		rep.Mul(gens[i])
	}
	return rep, true
}

// deformPair finds mutually anticommuting representatives of the logical
// pair (gx, gz) that both commute with every measured operator: the
// condition for the encoded qubit to pass through the projective
// measurements unharmed. Keeping the pair anticommuting rules out the case
// where a representative lies inside the measured span (a measured logical
// is a destroyed logical).
func deformPair(gx, gz *pauli.String, gens, measured []*pauli.String) (rx, rz *pauli.String, ok bool) {
	commuteAll := make([]commConstraint, len(measured))
	for i, m := range measured {
		commuteAll[i] = commConstraint{Op: m}
	}
	rz, ok = deform(gz, gens, commuteAll)
	if ok {
		rx, ok = deform(gx, gens, append(append([]commConstraint{}, commuteAll...), commConstraint{Op: rz, Anti: true}))
		if ok {
			return rx, rz, true
		}
	}
	rx, ok = deform(gx, gens, commuteAll)
	if !ok {
		return nil, nil, false
	}
	rz, ok = deform(gz, gens, append(append([]commConstraint{}, commuteAll...), commConstraint{Op: rx, Anti: true}))
	if !ok {
		return nil, nil, false
	}
	return rx, rz, true
}

// cornerPlan is one candidate corner-qubit handling for a conversion step.
type cornerPlan struct {
	remove []Cell
	basis  []pauli.Kind
}

// cornerState is the simulated state threaded through corner-movement
// planning.
type cornerState struct {
	converted    [4]bool
	inactive     map[Cell]pauli.Kind
	curX, curZ   *pauli.String
	prevMeasured []*pauli.String
}

func (s *cornerState) clone() *cornerState {
	in := make(map[Cell]pauli.Kind, len(s.inactive))
	for k, v := range s.inactive {
		in[k] = v
	}
	return &cornerState{
		converted:    s.converted,
		inactive:     in,
		curX:         s.curX.Clone(),
		curZ:         s.curZ.Clone(),
		prevMeasured: s.prevMeasured,
	}
}

// candidatePlans enumerates corner-removal options, smallest first.
func (lq *LogicalQubit) candidatePlans() []cornerPlan {
	corners := []Cell{
		lq.CellAt(0, 0), lq.CellAt(0, lq.Cols-1),
		lq.CellAt(lq.Rows-1, lq.Cols-1), lq.CellAt(lq.Rows-1, 0),
	}
	var plans []cornerPlan
	plans = append(plans, cornerPlan{})
	for _, cell := range corners {
		for _, b := range []pauli.Kind{pauli.Z, pauli.X} {
			plans = append(plans, cornerPlan{remove: []Cell{cell}, basis: []pauli.Kind{b}})
		}
	}
	for i1 := 0; i1 < len(corners); i1++ {
		for i2 := i1 + 1; i2 < len(corners); i2++ {
			for _, b1 := range []pauli.Kind{pauli.Z, pauli.X} {
				for _, b2 := range []pauli.Kind{pauli.Z, pauli.X} {
					plans = append(plans, cornerPlan{
						remove: []Cell{corners[i1], corners[i2]},
						basis:  []pauli.Kind{b1, b2},
					})
				}
			}
		}
	}
	return plans
}

// tryStep evaluates one edge conversion under a plan, returning the updated
// state, the plaquette set to measure, and whether the logical pair
// survives.
func (lq *LogicalQubit) tryStep(s *cornerState, e Edge, plan cornerPlan) (*cornerState, []*Plaquette, bool) {
	// Input-independent deformation generators: the pre-step code
	// stabilizers, the removed cells' known operators, and the previous
	// step's still-definite records.
	var gens []*pauli.String
	for _, p := range lq.plaquettesWithHosts(lq.hostsFor(s.converted), s.inactive) {
		gens = append(gens, lq.StabilizerString(p))
	}
	for cell, basis := range s.inactive {
		gens = append(gens, pauli.Single(lq.C.NumQubits(), lq.C.Qubit(cell), basis))
	}
	gens = append(gens, s.prevMeasured...)

	next := s.clone()
	next.converted[e] = true
	// The plan's cells end removed; every other currently inactive cell is
	// re-prepared (in Z).
	planned := map[Cell]pauli.Kind{}
	for i, cell := range plan.remove {
		planned[cell] = plan.basis[i]
	}
	var reprep []Cell
	for cell := range next.inactive {
		if _, keep := planned[cell]; !keep {
			reprep = append(reprep, cell)
		}
	}
	next.inactive = planned

	plaqs := lq.plaquettesWithHosts(lq.hostsFor(next.converted), next.inactive)
	strs := make([]*pauli.String, len(plaqs))
	for i, p := range plaqs {
		strs[i] = lq.StabilizerString(p)
	}
	for i := range strs {
		for j := i + 1; j < len(strs); j++ {
			if !strs[i].Commutes(strs[j]) {
				return nil, nil, false
			}
		}
	}
	measured := append([]*pauli.String{}, strs...)
	for i, cell := range plan.remove {
		if prev, was := s.inactive[cell]; was && prev == plan.basis[i] {
			continue // already out in this basis: no new measurement
		}
		measured = append(measured, pauli.Single(lq.C.NumQubits(), lq.C.Qubit(cell), plan.basis[i]))
	}
	for _, cell := range reprep {
		// Re-preparation resets measure Z implicitly.
		measured = append(measured, pauli.Single(lq.C.NumQubits(), lq.C.Qubit(cell), pauli.Z))
	}
	rx, rz, ok := deformPair(s.curX, s.curZ, gens, measured)
	if !ok {
		return nil, nil, false
	}
	next.curX, next.curZ = rx, rz
	next.prevMeasured = measured
	return next, plaqs, true
}

// planSequence finds, by depth-first search, a corner plan for each edge in
// the sequence such that the logical pair survives every intermediate
// configuration. It returns the chosen plans.
func (lq *LogicalQubit) planSequence(s *cornerState, edges []Edge) ([]cornerPlan, bool) {
	if len(edges) == 0 {
		// Closing condition: all removed cells must be re-preparable and
		// the final full plaquette set must keep the pair alive.
		if len(s.inactive) == 0 {
			return nil, true
		}
		final, _, ok := lq.tryStepFinal(s)
		if !ok {
			return nil, false
		}
		_ = final
		return nil, true
	}
	for _, plan := range lq.candidatePlans() {
		next, _, ok := lq.tryStep(s, edges[0], plan)
		if !ok {
			continue
		}
		rest, ok := lq.planSequence(next, edges[1:])
		if !ok {
			continue
		}
		return append([]cornerPlan{plan}, rest...), true
	}
	return nil, false
}

// tryStepFinal models the closing re-preparation round (all cells revived,
// full plaquette set measured).
func (lq *LogicalQubit) tryStepFinal(s *cornerState) (*cornerState, []*Plaquette, bool) {
	var gens []*pauli.String
	for _, p := range lq.plaquettesWithHosts(lq.hostsFor(s.converted), s.inactive) {
		gens = append(gens, lq.StabilizerString(p))
	}
	for cell, basis := range s.inactive {
		gens = append(gens, pauli.Single(lq.C.NumQubits(), lq.C.Qubit(cell), basis))
	}
	gens = append(gens, s.prevMeasured...)
	next := s.clone()
	var measured []*pauli.String
	for cell := range s.inactive {
		measured = append(measured, pauli.Single(lq.C.NumQubits(), lq.C.Qubit(cell), pauli.Z))
	}
	next.inactive = map[Cell]pauli.Kind{}
	plaqs := lq.plaquettesWithHosts(lq.hostsFor(next.converted), next.inactive)
	for _, p := range plaqs {
		measured = append(measured, lq.StabilizerString(p))
	}
	rx, rz, ok := deformPair(s.curX, s.curZ, gens, measured)
	if !ok {
		return nil, nil, false
	}
	next.curX, next.curZ = rx, rz
	next.prevMeasured = measured
	return next, plaqs, true
}

// executeStep emits one planned edge conversion: re-preparations, corner
// measurements, and `rounds` cycles over the step's plaquette set.
func (lq *LogicalQubit) executeStep(s *cornerState, e Edge, plan cornerPlan, rounds int) (*cornerState, error) {
	c := lq.C
	next, plaqs, ok := lq.tryStep(s, e, plan)
	if !ok {
		return nil, fmt.Errorf("core: planned corner step for edge %v is inconsistent", e)
	}
	planned := map[Cell]pauli.Kind{}
	for i, cell := range plan.remove {
		planned[cell] = plan.basis[i]
	}
	for cell := range s.inactive {
		if _, keep := planned[cell]; !keep {
			c.prepCell(cell, pauli.Z)
		}
	}
	for i, cell := range plan.remove {
		if prev, was := s.inactive[cell]; was && prev == plan.basis[i] {
			continue
		}
		c.measureOutCell(cell, plan.basis[i])
	}
	lq.edgeConverted[e] = true
	lq.inactive = next.inactive
	lq.invalidateGeometry()
	for r := 0; r < rounds; r++ {
		if _, err := c.SyndromeRound(plaqs, lq.StabilizerString); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// ExtendLogicalOperatorClockwise performs one corner movement: the boundary
// half-plaquettes of the given edge are replaced by halves of the opposite
// type, measuring the new boundary stabilizers for `rounds` cycles. Corner
// data qubits are measured out and re-prepared as needed to keep the
// logical pair alive (paper Sec 2.5); the plan is found by GF(2) search
// over input-independent representatives. For multi-edge sequences with
// global constraints use FlipPatch, which plans all four movements jointly.
func (lq *LogicalQubit) ExtendLogicalOperatorClockwise(e Edge, rounds int) error {
	if !lq.Initialized {
		return fmt.Errorf("core: corner movement on uninitialized tile")
	}
	if lq.edgeConverted[e] {
		return fmt.Errorf("core: edge %v already converted", e)
	}
	s := lq.currentCornerState()
	for _, plan := range lq.candidatePlans() {
		next, _, ok := lq.tryStep(s, e, plan)
		if !ok {
			continue
		}
		res, err := lq.executeStep(s, e, plan, rounds)
		if err != nil {
			return err
		}
		lq.adoptCornerState(res)
		_ = next
		lq.maybeCompleteFlip(rounds)
		return nil
	}
	return fmt.Errorf("core: no corner-qubit plan keeps the logical operators alive for edge %v", e)
}

// currentCornerState captures the live corner-movement state, initializing
// the maintained representatives at sequence start.
func (lq *LogicalQubit) currentCornerState() *cornerState {
	if lq.edgeConverted == [4]bool{} || lq.curX == nil {
		lq.curX = lq.geoRep(LogicalX)
		lq.curZ = lq.geoRep(LogicalZ)
		lq.seqGens = nil
	}
	in := make(map[Cell]pauli.Kind, len(lq.inactive))
	for k, v := range lq.inactive {
		in[k] = v
	}
	return &cornerState{
		converted:    lq.edgeConverted,
		inactive:     in,
		curX:         lq.curX,
		curZ:         lq.curZ,
		prevMeasured: lq.seqGens,
	}
}

func (lq *LogicalQubit) adoptCornerState(s *cornerState) {
	lq.edgeConverted = s.converted
	lq.inactive = s.inactive
	lq.curX, lq.curZ = s.curX, s.curZ
	lq.seqGens = s.prevMeasured
	lq.invalidateGeometry()
}

// maybeCompleteFlip finalizes a completed four-edge sequence: the
// arrangement toggles, remaining corner qubits are re-prepared and a
// closing round is run.
func (lq *LogicalQubit) maybeCompleteFlip(rounds int) {
	if lq.edgeConverted != [4]bool{true, true, true, true} {
		return
	}
	c := lq.C
	lq.Arr = lq.Arr.FlipPatch()
	lq.edgeConverted = [4]bool{}
	lq.invalidateGeometry()
	if len(lq.inactive) > 0 {
		for cell := range lq.inactive {
			c.prepCell(cell, pauli.Z)
			delete(lq.inactive, cell)
		}
		lq.invalidateGeometry()
		for r := 0; r < rounds; r++ {
			if _, err := c.SyndromeRound(lq.Plaquettes(), lq.StabilizerString); err != nil {
				panic(err) // closing round over a canonical arrangement cannot fail
			}
		}
	}
	lq.curX, lq.curZ, lq.seqGens = nil, nil, nil
}

// FlipPatch performs the Flip Patch operation (paper Fig 3): a sequence of
// four clockwise corner movements taking the patch from the standard to the
// flipped arrangement (or from rotated to rotated-flipped), preserving the
// encoded state (identity process). The four movements are planned jointly
// so that corner-qubit removals keep both logical operators alive through
// every intermediate configuration — the paper's corner-qubit removal and
// re-preparation for even and mixed code distances.
func (lq *LogicalQubit) FlipPatch(roundsPerStep int) error {
	if !lq.Initialized {
		return fmt.Errorf("core: Flip Patch on uninitialized tile")
	}
	if lq.Arr != Standard && lq.Arr != Rotated {
		return fmt.Errorf("core: Flip Patch implemented from the standard and rotated arrangements only (got %s)", lq.Arr.Name())
	}
	if lq.edgeConverted != [4]bool{} {
		return fmt.Errorf("core: Flip Patch with a corner movement already in progress")
	}
	edges := []Edge{TopEdge, RightEdge, BottomEdge, LeftEdge}
	s := lq.currentCornerState()
	plans, ok := lq.planSequence(s, edges)
	if !ok {
		return fmt.Errorf("core: no corner-qubit plan sequence completes the flip for dx=%d dz=%d", lq.Cols, lq.Rows)
	}
	for i, e := range edges {
		res, err := lq.executeStep(s, e, plans[i], roundsPerStep)
		if err != nil {
			return fmt.Errorf("core: flip patch %v edge: %w", e, err)
		}
		s = res
		lq.adoptCornerState(s)
	}
	lq.maybeCompleteFlip(roundsPerStep)
	return nil
}
