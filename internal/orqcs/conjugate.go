package orqcs

// Conjugate applies unitary Clifford instruction in to the Pauli bit-planes
// fx, fz (bit i of fx[q] / fz[q] is lane i's X / Z component on qubit q),
// tracking each lane's Pauli modulo phase. It reports false for
// instructions that are not unitary Cliffords — measurements, preparations
// and non-Clifford gates — leaving the planes untouched.
//
// It is the one Pauli-propagation kernel. The frame sampler advances its
// frames forward through it. The noise package's backward fault-effect
// pass calls it with the planes swapped, Conjugate(in, sz, sx), on
// sensitivity planes: sx[q] / sz[q] hold the lanes an X / Z error on q
// flips. Moving those planes back across a gate takes the transpose of the
// gate's forward map on (x, z) bits; the swapped call applies the inverse
// transpose, and the two agree because every gate here acts on Paulis,
// modulo phase, as an involution. A gate added to this switch must keep
// that property, or the backward pass needs its own rule. Small enough to
// inline into both loops.
func Conjugate(in *Instr, fx, fz []uint64) bool {
	q := in.Q1
	switch in.Op {
	case OpX, OpY, OpZ:
		// Paulis commute with the frame up to phase: no-op.
	case OpSqrtX, OpSqrtXDg:
		// Z → ±Y: the Z bit induces an X bit.
		fx[q] ^= fz[q]
	case OpSqrtY, OpSqrtYDg:
		// X ↔ ±Z: swap the bits.
		fx[q], fz[q] = fz[q], fx[q]
	case OpS, OpSdg:
		// X → ±Y: the X bit induces a Z bit.
		fz[q] ^= fx[q]
	case OpZZ:
		// X content on exactly one operand flips both Z bits (the fused-row
		// update of tableau.ZZ).
		one := fx[q] ^ fx[in.Q2]
		fz[q] ^= one
		fz[in.Q2] ^= one
	default:
		return false
	}
	return true
}
