// Row-major inverse tableau (Stim's TableauSimulator representation,
// Gidney 2021): the concrete stabilizer state of every simulation shot and
// of the noiseless reference pass. For a state C|0…0⟩ it stores, for every
// qubit q, the conjugated Paulis C†X_qC and C†Z_qC as rows. Measuring Z_q
// on the state is measuring C†Z_qC on |0…0⟩, so the outcome is
// deterministic exactly when that row has no X bit, and it is then the
// row's sign: an O(n/64) read with no reconstruction.
//
// A gate G applied to the state prepends G† · G to the inverse: only the
// rows of G's operands change, each becoming a product of at most three old
// rows, and a Pauli (gate or fault) only flips signs. A random measurement
// draws one coin and collapses by inserting gates at the beginning of time
// (column operations on every row), as Stim does: CXs that leave |0…0⟩
// unchanged isolate one anticommuting column, a Hadamard-like rotation on
// it makes Z_q deterministic, and an X fixes the outcome to the coin.
package tableau

import (
	"math/bits"
	"math/rand"

	"tiscc/internal/expr"
	"tiscc/internal/pauli"
)

// Inverse is the row-major inverse tableau of a concrete stabilizer state
// over n qubits. It implements State with the same behaviour as a
// concrete-mode T: the same RNG draws (one Intn(2) per random outcome, none
// per deterministic one), so identical record tables, virtual ids included,
// for identical seeds.
type Inverse struct {
	n, wd int
	// rows holds 2n rows of 2·wd words, [X words | Z words]: row q is
	// C†X_qC and row n+q is C†Z_qC.
	rows []uint64
	sign []bool   // per-row sign: row r is (−1)^sign[r] times its literal Paulis
	tmp  []uint64 // ZZ's Z_aZ_b row; ExpectationValue's product

	targets []cxTarget // collapseZ scratch

	rng         *rand.Rand
	records     map[int32]bool
	nextVirtual int32
}

// NewInverse returns the inverse tableau of |0…0⟩ over n qubits (the
// identity: row q is X_q, row n+q is Z_q), drawing random outcomes from
// rng.
func NewInverse(n int, rng *rand.Rand) *Inverse {
	if rng == nil {
		panic("tableau: Inverse requires an RNG (no symbolic mode)")
	}
	wd := (n + 63) / 64
	v := &Inverse{n: n, wd: wd, rows: make([]uint64, 4*n*wd), sign: make([]bool, 2*n),
		tmp: make([]uint64, 2*wd), rng: rng, records: make(map[int32]bool)}
	v.ResetAll()
	return v
}

// N returns the number of qubits.
func (v *Inverse) N() int { return v.n }

// Records exposes the record table of the current shot.
func (v *Inverse) Records() map[int32]bool { return v.records }

// VirtualID allocates a fresh negative record id for a reset's implicit
// measurement (the even negatives, as a concrete-mode T allocates them).
func (v *Inverse) VirtualID() int32 {
	v.nextVirtual -= 2
	return v.nextVirtual + 2
}

// ResetAll reinitializes the state to |0…0⟩ in place, reusing every
// allocation, so a fresh shot costs no heap allocation.
func (v *Inverse) ResetAll() {
	clear(v.rows)
	clear(v.sign)
	clear(v.records)
	v.nextVirtual = -2
	for q := 0; q < v.n; q++ {
		w, b := q>>6, uint(q)&63
		v.row(q)[w] |= 1 << b
		v.row(v.n + q)[v.wd+w] |= 1 << b
	}
}

// row returns row r's [X words | Z words].
func (v *Inverse) row(r int) []uint64 {
	s := r * 2 * v.wd
	return v.rows[s : s+2*v.wd : s+2*v.wd]
}

// rowProduct sets dst to i^k · a · b for the literal rows a and b with signs
// sa and sb, returning the sign of the product, which must be Hermitian.
// dst may alias a or b.
func rowProduct(dst, a, b []uint64, sa, sb bool, k, wd int) bool {
	k += mulLiteral(dst, a, b, wd)
	if sa != sb {
		k += 2
	}
	if k&1 != 0 {
		panic("tableau: non-Hermitian inverse row product")
	}
	return k&2 != 0
}

// mulLiteral sets dst to the literal Pauli row of a · b and returns the
// power of i the product carries (a · b = i^k · dst, k mod 4 in the low two
// bits). dst may alias a or b. The power is tallied as in Stim: every bit
// position is a mod-4 counter held in two words, bumped by ±1 wherever the
// factors anticommute.
func mulLiteral(dst, a, b []uint64, wd int) int {
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
	return bits.OnesCount64(c1) + 2*bits.OnesCount64(c2)
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
// G†X_qG and G†Z_qG under the old inverse, with Y_q = i·X_q·Z_q.

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

// ApplyPauliError applies the Pauli X^x Z^z on qubit q as a stochastic fault
// (Pauli frame update). Like the Pauli gates it only flips signs: an X
// flips row C†Z_qC, a Z flips row C†X_qC.
func (v *Inverse) ApplyPauliError(q int, x, z bool) {
	if x {
		v.sign[v.n+q] = !v.sign[v.n+q]
	}
	if z {
		v.sign[q] = !v.sign[q]
	}
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

// MeasureZ measures Pauli Z on qubit q under record index rec. A random
// outcome draws one Intn(2) coin and collapses the state to it.
func (v *Inverse) MeasureZ(q int, rec int32) Outcome {
	if det, bit := v.DeterministicZ(q); det {
		v.records[rec] = bit
		return Outcome{Record: rec, Deterministic: true, Derived: expr.FromConst(bit)}
	}
	bit := v.rng.Intn(2) == 1
	v.records[rec] = bit
	v.collapseZ(q, bit)
	return Outcome{Record: rec}
}

// Reset forces qubit q into |0⟩ (hardware Prepare_Z semantics): a Z
// measurement under a virtual record id followed by a conditional X, as
// T.Reset, so virtual ids and RNG draws line up.
func (v *Inverse) Reset(q int) {
	rec := v.VirtualID()
	v.MeasureZ(q, rec)
	if v.records[rec] {
		v.X(q)
	}
}

// CollapseRow calls f, in ascending qubit order, for every qubit in the
// support of a stabilizer D that anticommutes with Z_q, with D's X/Z bits
// there. Z_q's outcome must be random, and MeasureZ(q, ·) collapses on the
// same pivot column k (row C†Z_qC's first X bit): D = C·Z_k·C† has X on
// qubit j iff row C†Z_jC has an X in column k (D anticommutes with Z_j), and
// Z iff row C†X_jC does. Multiplying D into a Pauli frame converts between
// the measurement's two collapse branches, which is what the frame sampler
// reads it for.
func (v *Inverse) CollapseRow(q int, f func(j int, x, z bool)) {
	k := firstBit(v.row(v.n + q)[:v.wd])
	if k < 0 {
		panic("tableau: CollapseRow on a deterministic outcome")
	}
	kw, kb := k>>6, uint(k)&63
	stride := 2 * v.wd
	for j := 0; j < v.n; j++ {
		x := v.rows[(v.n+j)*stride+kw]>>kb&1 != 0
		z := v.rows[j*stride+kw]>>kb&1 != 0
		if x || z {
			f(j, x, z)
		}
	}
}

// ExpectationValue returns the expectation of the Hermitian Pauli p: 0 when
// p anticommutes with some stabilizer, otherwise its ±1 sign. C†pC is the
// product of the rows of p's support, its power of i kept exactly; on
// |0…0⟩ it averages to 0 if any X bit is left and to that power otherwise.
func (v *Inverse) ExpectationValue(p *pauli.String) float64 {
	acc := v.tmp
	clear(acc)
	k := int(p.Phase)
	mul := func(r int) {
		k += mulLiteral(acc, acc, v.row(r), v.wd)
		if v.sign[r] {
			k += 2
		}
	}
	// p = i^Phase X^x Z^z, so each qubit contributes C†X_jC then C†Z_jC.
	for w, xw := range p.XBits {
		zw := p.ZBits[w]
		for u := xw | zw; u != 0; u &= u - 1 {
			b := bits.TrailingZeros64(u)
			if xw>>b&1 != 0 {
				mul(w*64 + b)
			}
			if zw>>b&1 != 0 {
				mul(v.n + w*64 + b)
			}
		}
	}
	for _, x := range acc[:v.wd] {
		if x != 0 {
			return 0
		}
	}
	switch k & 3 {
	case 0:
		return 1
	case 2:
		return -1
	}
	panic("tableau: non-real expectation value")
}

// collapseZ collapses a random Z_q measurement to outcome bit: afterwards
// DeterministicZ(q) reports (true, bit).
//
// The collapse appends three column operations on a pivot column p, the
// first with an X bit in row Z_q: CX(p, j) for every other such column j
// (sharing the control p they commute, leave |0…0⟩ unchanged and clear
// row Z_q's X bits outside p), then H_XZ or H_YZ on p so row Z_q's X or Y
// there becomes Z, then X on p when the row's sign differs from bit. Row Z_q
// goes first because it fixes the X; every row then takes all three in one
// visit.
func (v *Inverse) collapseZ(q int, bit bool) {
	zr := v.n + q
	row := v.row(zr)
	p := firstBit(row[:v.wd])
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

// firstBit returns the index of m's lowest set bit, or −1 if there is none.
func firstBit(m []uint64) int {
	for w, u := range m {
		if u != 0 {
			return w*64 + bits.TrailingZeros64(u)
		}
	}
	return -1
}

// cxTarget is one word of collapseZ's CX target columns.
type cxTarget struct {
	w int
	m uint64
}

// collapse is one collapseZ's column operations: the pivot's word and bit,
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
