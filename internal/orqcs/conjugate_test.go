package orqcs

import (
	"math/rand"
	"testing"
)

// TestConjugateInvolution pins the property the backward fault-effect pass
// relies on: every instruction Conjugate accepts acts on the planes as an
// involution, so the swapped-planes call is the transpose of the forward
// map. Measurements, preparations and T gates are rejected untouched.
func TestConjugateInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for op := OpPrepareZ; op <= OpZZ; op++ {
		in := Instr{Op: op, Q1: 0, Q2: 1, Rec: -1}
		fx, fz := []uint64{rng.Uint64(), rng.Uint64()}, []uint64{rng.Uint64(), rng.Uint64()}
		x0, z0 := append([]uint64(nil), fx...), append([]uint64(nil), fz...)
		ok := Conjugate(&in, fx, fz)
		unitary := op != OpPrepareZ && op != OpMeasureZ && op != OpT && op != OpTdg
		if ok != unitary {
			t.Fatalf("opcode %d: Conjugate reports %v, want %v", op, ok, unitary)
		}
		if ok {
			Conjugate(&in, fx, fz)
		}
		if fx[0] != x0[0] || fx[1] != x0[1] || fz[0] != z0[0] || fz[1] != z0[1] {
			t.Fatalf("opcode %d: applying Conjugate twice changed the planes", op)
		}
	}
}
