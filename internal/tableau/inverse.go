// Row-major inverse tableau (Stim's TableauSimulator representation,
// Gidney 2021). For a state C|0…0⟩ it stores, for every qubit q, the
// conjugated Paulis C†X_qC and C†Z_qC as rows. Measuring Z_q on the state
// is measuring C†Z_qC on |0…0⟩, so the outcome is deterministic exactly
// when that row has no X bit, and it is then the row's sign: an O(n/64)
// read, where the forward tableau's deterministic outcome costs a walk
// over every qubit's planes (Sliced.detValue).
//
// A gate G applied to the state prepends G† · G to the inverse: only the
// rows of G's operands change, each becoming a product of at most three old
// rows. A random measurement collapses by inserting gates at the beginning
// of time (column operations on every row), as Stim does: CXs that leave
// |0…0⟩ unchanged isolate one anticommuting column, a Hadamard-like
// rotation on it makes Z_q deterministic, and an X fixes the outcome to the
// given coin. Inverse draws no randomness: the forward tableau owns the
// coins and the inverse follows them.
package tableau

import "math/bits"

// Inverse is the row-major inverse tableau of a stabilizer state over n
// qubits, driven gate by gate alongside a forward tableau so deterministic
// Z outcomes can be read without a reconstruction.
type Inverse struct {
	n, wd int
	// rows holds 2n rows of 2·wd words, [X words | Z words]: row q is
	// C†X_qC and row n+q is C†Z_qC.
	rows []uint64
	sign []bool   // per-row sign: row r is (−1)^sign[r] times its literal Paulis
	tmp  []uint64 // ZZ's Z_aZ_b row

	targets []cxTarget // CollapseZ scratch
}

// NewInverse returns the inverse tableau of |0…0⟩ over n qubits (the
// identity: row q is X_q, row n+q is Z_q).
func NewInverse(n int) *Inverse {
	wd := (n + 63) / 64
	v := &Inverse{n: n, wd: wd, rows: make([]uint64, 4*n*wd), sign: make([]bool, 2*n),
		tmp: make([]uint64, 2*wd)}
	for q := 0; q < n; q++ {
		w, b := q>>6, uint(q)&63
		v.row(q)[w] |= 1 << b
		v.row(n + q)[wd+w] |= 1 << b
	}
	return v
}

// row returns row r's [X words | Z words].
func (v *Inverse) row(r int) []uint64 {
	s := r * 2 * v.wd
	return v.rows[s : s+2*v.wd : s+2*v.wd]
}

// rowProduct sets dst to i^k · a · b for the literal rows a and b with signs
// sa and sb, returning the sign of the product, which must be Hermitian.
// dst may alias a or b. The power of i that multiplying literal Paulis
// contributes is tallied as in Stim: every bit position is a mod-4 counter
// held in two words, bumped by ±1 wherever the factors anticommute.
func rowProduct(dst, a, b []uint64, sa, sb bool, k, wd int) bool {
	a, b, dst = a[:2*wd], b[:2*wd], dst[:2*wd]
	var c1, c2 uint64
	for w := 0; w < wd; w++ {
		x1, z1, x2, z2 := a[w], a[wd+w], b[w], b[wd+w]
		x, z := x1^x2, z1^z2
		x1z2 := x1 & z2
		anti := x2&z1 ^ x1z2
		c2 ^= (c1 ^ x ^ z ^ x1z2) & anti
		c1 ^= anti
		dst[w], dst[wd+w] = x, z
	}
	k += bits.OnesCount64(c1) + 2*bits.OnesCount64(c2)
	if sa != sb {
		k += 2
	}
	if k&1 != 0 {
		panic("tableau: non-Hermitian inverse row product")
	}
	return k&2 != 0
}

// mulRight sets row a to i^k · (row a)(row b).
func (v *Inverse) mulRight(a, b, k int) {
	v.sign[a] = rowProduct(v.row(a), v.row(a), v.row(b), v.sign[a], v.sign[b], k, v.wd)
}

// swapRows exchanges rows a and b, signs included.
func (v *Inverse) swapRows(a, b int) {
	ra, rb := v.row(a), v.row(b)
	for w := range ra {
		ra[w], rb[w] = rb[w], ra[w]
	}
	v.sign[a], v.sign[b] = v.sign[b], v.sign[a]
}

// --- Prepend rules ----------------------------------------------------------
//
// Each native gate G rewrites the rows of its operands to the images of
// G†X_qG and G†Z_qG under the old inverse, with Y_q = i·X_q·Z_q. The
// conjugation tables are the inverses of Sliced's.

// S prepends the phase gate on q (G†XG = −Y).
func (v *Inverse) S(q int) { v.mulRight(q, v.n+q, 3) }

// Sdg prepends the inverse phase gate on q (G†XG = Y).
func (v *Inverse) Sdg(q int) { v.mulRight(q, v.n+q, 1) }

// X prepends Pauli X on q (G†ZG = −Z).
func (v *Inverse) X(q int) { v.sign[v.n+q] = !v.sign[v.n+q] }

// Z prepends Pauli Z on q (G†XG = −X).
func (v *Inverse) Z(q int) { v.sign[q] = !v.sign[q] }

// Y prepends Pauli Y on q (G†XG = −X, G†ZG = −Z).
func (v *Inverse) Y(q int) {
	v.sign[q] = !v.sign[q]
	v.sign[v.n+q] = !v.sign[v.n+q]
}

// SqrtX prepends X_{π/4} on q (G†ZG = −Y = i·Z·X).
func (v *Inverse) SqrtX(q int) { v.mulRight(v.n+q, q, 1) }

// SqrtXDg prepends X_{−π/4} on q (G†ZG = Y = −i·Z·X).
func (v *Inverse) SqrtXDg(q int) { v.mulRight(v.n+q, q, 3) }

// SqrtY prepends Y_{π/4} on q (G†XG = Z, G†ZG = −X).
func (v *Inverse) SqrtY(q int) {
	v.swapRows(q, v.n+q)
	v.sign[v.n+q] = !v.sign[v.n+q]
}

// SqrtYDg prepends Y_{−π/4} on q (G†XG = −Z, G†ZG = X).
func (v *Inverse) SqrtYDg(q int) {
	v.swapRows(q, v.n+q)
	v.sign[q] = !v.sign[q]
}

// ZZ prepends e^{-iπ Z⊗Z/4} on a and b: G†X_aG = −Y_aZ_b = −i·X_a·(Z_aZ_b),
// symmetric in b, and both Z rows are fixed.
func (v *Inverse) ZZ(a, b int) {
	za, zb := v.n+a, v.n+b
	m := v.tmp
	sm := rowProduct(m, v.row(za), v.row(zb), v.sign[za], v.sign[zb], 0, v.wd)
	v.sign[a] = rowProduct(v.row(a), v.row(a), m, v.sign[a], sm, 3, v.wd)
	v.sign[b] = rowProduct(v.row(b), v.row(b), m, v.sign[b], sm, 3, v.wd)
}

// --- Measurement ------------------------------------------------------------

// DeterministicZ reports whether measuring Z_q has a forced outcome and, if
// so, the outcome bit.
func (v *Inverse) DeterministicZ(q int) (det, bit bool) {
	r := v.row(v.n + q)
	for _, x := range r[:v.wd] {
		if x != 0 {
			return false, false
		}
	}
	return true, v.sign[v.n+q]
}

// CollapseZ collapses a random Z_q measurement to outcome bit: afterwards
// DeterministicZ(q) reports (true, bit). The outcome must be random.
//
// The collapse appends three column operations on a pivot column p, the
// first with an X bit in row Z_q: CX(p, j) for every other such column j
// (sharing the control p they commute, leave |0…0⟩ unchanged and clear
// row Z_q's X bits outside p), then H_XZ or H_YZ on p so row Z_q's X or Y
// there becomes Z, then X on p when the row's sign differs from bit. Row Z_q
// goes first because it fixes the X; every row then takes all three in one
// visit.
func (v *Inverse) CollapseZ(q int, bit bool) {
	zr := v.n + q
	row := v.row(zr)
	p := firstBit(row[:v.wd])
	if p < 0 {
		panic("tableau: CollapseZ on a deterministic outcome")
	}
	pw, pb := p>>6, uint(p)&63
	// The CX targets: row Z_q's X bits but p, as (word, mask) pairs.
	v.targets = v.targets[:0]
	yz := row[v.wd+pw] >> pb & 1
	for w, m := range row[:v.wd] {
		if w == pw {
			m &^= 1 << pb
		}
		if m != 0 {
			v.targets = append(v.targets, cxTarget{w, m})
			yz ^= uint64(bits.OnesCount64(row[v.wd+w]&m) & 1)
		}
	}
	// Row Z_q's Z bit on p after the CXs picks the rotation: H_YZ for a Y.
	c := collapse{pw: pw, pb: pb, yz: yz != 0}
	v.collapseRow(zr, c)
	c.flip = v.sign[zr] != bit
	v.sign[zr] = bit
	// A row with no X or Z on p and no Z on a target commutes with every
	// column operation: skip it without a visit.
	wd, pm := v.wd, uint64(1)<<pb
	for r, base := 0, 0; r < 2*v.n; r, base = r+1, base+2*wd {
		hit := (v.rows[base+pw] | v.rows[base+wd+pw]) & pm
		for _, t := range v.targets {
			hit |= v.rows[base+wd+t.w] & t.m
		}
		if hit != 0 && r != zr {
			v.collapseRow(r, c)
		}
	}
}

// cxTarget is one word of CollapseZ's CX target columns.
type cxTarget struct {
	w int
	m uint64
}

// collapse is one CollapseZ's column operations: the pivot's word and bit,
// H_YZ (yz) or H_XZ, and whether the X follows.
type collapse struct {
	pw       int
	pb       uint
	yz, flip bool
}

// collapseRow conjugates row r by the CXs, rotation and X of c.
func (v *Inverse) collapseRow(r int, c collapse) {
	wd := v.wd
	row := v.rows[r*2*wd : (r+1)*2*wd : (r+1)*2*wd]
	x, z := row[c.pw]>>c.pb&1, row[wd+c.pw]>>c.pb&1
	// The sequential Aaronson–Gottesman sign rule over the CXs sums to the
	// parity of: Z-only target sites, z_p times W, and W choose 2, where W
	// counts target sites with Z content.
	w, nx := 0, 0
	for _, t := range v.targets {
		if zt := row[wd+t.w] & t.m; zt != 0 {
			w += bits.OnesCount64(zt)
			nx += bits.OnesCount64(zt &^ row[t.w])
		}
	}
	s := v.sign[r]
	if x != 0 {
		if (nx+int(z)*w+w>>1)&1 != 0 {
			s = !s
		}
		for _, t := range v.targets {
			row[t.w] ^= t.m
		}
	}
	z ^= uint64(w & 1)
	// Rotate the pivot column: (x, z) → (x⊕z, z) for H_YZ, (z, x) for H_XZ.
	nx2, nz2 := x, z
	if c.yz {
		s = s != (x&^z != 0)
		nx2 = x ^ z
	} else {
		s = s != (x&z != 0)
		nx2, nz2 = z, x
	}
	if c.flip && nz2 != 0 {
		s = !s
	}
	row[c.pw] ^= (x ^ nx2) << c.pb
	row[wd+c.pw] ^= (row[wd+c.pw]>>c.pb&1 ^ nz2) << c.pb
	v.sign[r] = s
}
