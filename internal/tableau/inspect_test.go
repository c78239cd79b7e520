package tableau

import (
	"fmt"
	"math/bits"
	"math/rand"

	"tiscc/internal/expr"
	"tiscc/internal/pauli"
)

// Copying, row inspection and invariant checks of the tableaus, for the
// differential tests.

// Clone returns a deep copy sharing no state. The RNG is not cloned; pass
// the RNG to use in the copy (may be nil for symbolic).
func (t *T) Clone(rng *rand.Rand) *T {
	c := &T{n: t.n, rng: rng, records: make(map[int32]bool, len(t.records)), nextVirtual: t.nextVirtual}
	cloneRows := func(rs []Row) []Row {
		out := make([]Row, len(rs))
		for i, r := range rs {
			out[i] = Row{X: r.X.Clone(), Z: r.Z.Clone(), K: r.K, Sym: r.Sym.Xor(expr.Zero())}
		}
		return out
	}
	c.destab = cloneRows(t.destab)
	c.stab = cloneRows(t.stab)
	c.obs = cloneRows(t.obs)
	for k, v := range t.records {
		c.records[k] = v
	}
	c.scratch = Row{X: pauli.NewBits(t.n), Z: pauli.NewBits(t.n)}
	c.supp = make([]int, 0, len(c.scratch.X))
	return c
}

// CZ applies a controlled-Z between a and b.
func (t *T) CZ(a, b int) { t.H(b); t.CX(a, b); t.H(b) }

// StabilizerStrings returns the current stabilizer generators (concrete part
// only) for inspection; used by layer-by-layer verification tests.
func (t *T) StabilizerStrings() []*pauli.String {
	out := make([]*pauli.String, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.stab[i].Pauli(t.n)
	}
	return out
}

// StabilizerSym returns the symbolic sign expression of stabilizer row i.
func (t *T) StabilizerSym(i int) expr.Expr { return t.stab[i].Sym }

// CheckInvariants returns an error if the tableau violates its structural
// invariants (destabilizer/stabilizer pairing and mutual commutation).
func (t *T) CheckInvariants() error {
	for i := 0; i < t.n; i++ {
		pi := t.stab[i].Pauli(t.n)
		if !pi.Hermitian() {
			return fmt.Errorf("stabilizer %d has non-Hermitian phase: %s", i, pi)
		}
		for j := 0; j < t.n; j++ {
			pj := t.stab[j].Pauli(t.n)
			if !pi.Commutes(pj) {
				return fmt.Errorf("stabilizers %d and %d anticommute", i, j)
			}
			dj := t.destab[j].Pauli(t.n)
			com := pi.Commutes(dj)
			if (i == j) == com {
				return fmt.Errorf("destabilizer pairing violated at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// CheckInvariants returns an error if the inverse rows are not the image
// of a symplectic basis: the X rows pairwise commute, the Z rows pairwise
// commute, and row C†X_iC anticommutes with row C†Z_jC exactly when i = j.
func (v *Inverse) CheckInvariants() error {
	anti := func(a, b int) bool {
		ra, rb := v.row(a), v.row(b)
		odd := 0
		for w := 0; w < v.wd; w++ {
			odd ^= bits.OnesCount64(ra[w]&rb[v.wd+w] ^ ra[v.wd+w]&rb[w])
		}
		return odd&1 == 1
	}
	for i := 0; i < v.n; i++ {
		for j := 0; j < v.n; j++ {
			switch {
			case anti(i, j):
				return fmt.Errorf("rows X%d and X%d anticommute", i, j)
			case anti(v.n+i, v.n+j):
				return fmt.Errorf("rows Z%d and Z%d anticommute", i, j)
			case anti(i, v.n+j) != (i == j):
				return fmt.Errorf("rows X%d and Z%d break the pairing", i, j)
			}
		}
	}
	return nil
}
