package tableau

import (
	"fmt"
	"math/rand"

	"tiscc/internal/expr"
	"tiscc/internal/pauli"
)

// Copying, row inspection and invariant checks of both tableaus, for the
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

// DestabilizerStrings returns the current destabilizer rows (concrete part
// only), the counterpart of StabilizerStrings for differential tests.
func (t *T) DestabilizerStrings() []*pauli.String {
	out := make([]*pauli.String, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.destab[i].Pauli(t.n)
	}
	return out
}

// rowString extracts row r of the planes at offsets xo/zo, with sign plane
// sg, as a pauli.String: content plus the exact i-exponent (Y count plus
// twice the sign bit), matching what a row-major T would report for the
// same operator.
func (t *Sliced) rowString(xo, zo int, sg []uint64, r int) *pauli.String {
	p := pauli.NewString(t.n)
	w, b := r>>6, uint(r)&63
	y := 0
	for j := 0; j < t.n; j++ {
		pl := t.planes(j)
		xb := pl[xo+w]>>b&1 == 1
		zb := pl[zo+w]>>b&1 == 1
		p.XBits.Set(j, xb)
		p.ZBits.Set(j, zb)
		if xb && zb {
			y++
		}
	}
	ph := y % 4
	if sg[w]>>b&1 == 1 {
		ph = (ph + 2) % 4
	}
	p.Phase = uint8(ph)
	return p
}

// StabilizerStrings returns the current stabilizer generators.
func (t *Sliced) StabilizerStrings() []*pauli.String {
	out := make([]*pauli.String, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.rowString(2*t.wd, 3*t.wd, t.ss, i)
	}
	return out
}

// DestabilizerStrings returns the current destabilizer rows.
func (t *Sliced) DestabilizerStrings() []*pauli.String {
	out := make([]*pauli.String, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.rowString(0, t.wd, t.ds, i)
	}
	return out
}

// CheckInvariants returns an error if the tableau violates its structural
// invariants (destabilizer/stabilizer pairing and mutual commutation).
func (t *Sliced) CheckInvariants() error {
	stabs := t.StabilizerStrings()
	destabs := t.DestabilizerStrings()
	for i := 0; i < t.n; i++ {
		if !stabs[i].Hermitian() {
			return fmt.Errorf("stabilizer %d has non-Hermitian phase: %s", i, stabs[i])
		}
		for j := 0; j < t.n; j++ {
			if !stabs[i].Commutes(stabs[j]) {
				return fmt.Errorf("stabilizers %d and %d anticommute", i, j)
			}
			com := stabs[i].Commutes(destabs[j])
			if (i == j) == com {
				return fmt.Errorf("destabilizer pairing violated at (%d,%d)", i, j)
			}
		}
	}
	return nil
}
