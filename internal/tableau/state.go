package tableau

import "tiscc/internal/pauli"

// State is the engine contract: exactly what the simulation engine calls on
// a stabilizer state to run lowered programs — the compiled-program
// executor, the noise subsystem's fault-injecting shot loop and the
// verification harnesses driving them. Lowered programs use the native gate
// set only (ZZ and the nine single-qubit rotations), so no other gate is
// part of it. The inverse tableau Inverse (the engine's state) and the
// row-major T (its test oracle) implement it with bit-identical behaviour
// (records, outcomes, expectation values) for identical seeds, which is
// what lets the engine swap representations without perturbing any pinned
// golden expectation. T's symbolic-tracker
// API (observable rows, conditional Paulis, H/CX/CZ/Swap) is not part of
// the contract.
type State interface {
	N() int
	ResetAll()
	Reset(q int)
	MeasureZ(q int, rec int32) Outcome
	ZZ(a, b int)
	X(q int)
	Y(q int)
	Z(q int)
	S(q int)
	Sdg(q int)
	SqrtX(q int)
	SqrtXDg(q int)
	SqrtY(q int)
	SqrtYDg(q int)
	ApplyPauliError(q int, x, z bool)
	ExpectationValue(p *pauli.String) float64
	Records() map[int32]bool
}

var (
	_ State = (*T)(nil)
	_ State = (*Inverse)(nil)
)
