// Bit-sliced (column-major) stabilizer engine. Where T stores each tableau
// row as a pair of bit vectors over qubits, Sliced transposes the state into
// per-qubit bit-planes over rows (CHP/Stim style): for every qubit q there is
// one X plane and one Z plane whose bit r is row r's X (resp. Z) bit on q,
// plus one packed sign word per row group. A single-qubit gate then touches
// only the two planes of its qubit — O(rows/64) word operations instead of a
// walk over every row — and a stochastic Pauli fault is a one-word sign
// update per plane. This is the engine of the run-many simulation path: shot
// cost on gate-dominated circuits drops by the word width.
//
// Sliced is concrete-mode only (it always samples measurement outcomes with
// an RNG): per-row phases are representable as a single sign bit, which is
// exactly what packs into words. It implements the State engine contract —
// the native gate set of lowered programs (ZZ and the nine single-qubit
// rotations), Z measurement and reset, Pauli faults and expectation values —
// plus the virtual ids and collapse rows the reference trace reads
// (VirtualID, LastCollapse) and the row inspection the differential tests
// use. Observable rows, conditional Paulis and H/CX/CZ/Swap belong to the
// compiler's symbolic tracker and live only on the row-major T, whose
// per-row expression slots have no bit-sliced form.
//
// Row phases use the canonical single-sign-bit convention: a row is
// (−1)^s · P_1 ⊗ … ⊗ P_n with literal Pauli matrices (Y itself, not iXZ).
// Relative to T's i^K X^x Z^z representation, s = (K − |x∧z|)/2 mod 2; both
// representations are canonical, so a correct gate update here produces
// states identical row-for-row to T's — the differential tests assert this.
package tableau

import (
	"math/bits"
	"math/rand"

	"tiscc/internal/expr"
	"tiscc/internal/pauli"
)

// Sliced is the bit-sliced concrete-mode stabilizer engine. It implements
// State with the same behaviour as a concrete-mode T: identical measurement
// record tables (virtual ids included) for identical seeds.
type Sliced struct {
	n  int // qubits
	wd int // words per destabilizer/stabilizer plane: ceil(n/64)

	// qp holds the destabilizer/stabilizer planes interleaved per qubit:
	// qubit q owns qp[q*4*wd:(q+1)*4*wd] laid out as
	// [destab X | destab Z | stab X | stab Z], so a single-qubit gate's
	// working set is one contiguous block plus the sign words.
	qp []uint64

	// Sign planes: bit r is the sign of row r within its group.
	ds, ss []uint64

	rng         *rand.Rand
	records     map[int32]bool
	nextVirtual int32

	// Reusable measurement scratch: anticommutation row masks per group,
	// the 2-bit mod-4 phase accumulators of the CHP rowsum, and the
	// row-major extraction of the collapsing stabilizer.
	mad, mas   []uint64
	lo, hi     []uint64
	srcX, srcZ pauli.Bits
	nz         []int // detValue: the nonzero words of the row mask

	single  *pauli.String // reusable weight-≤1 scratch operator
	singleQ int
}

// NewSliced returns a bit-sliced tableau over n qubits, all |0⟩. Unlike New,
// the RNG is mandatory: Sliced has no symbolic mode.
func NewSliced(n int, rng *rand.Rand) *Sliced {
	if rng == nil {
		panic("tableau: Sliced requires an RNG (no symbolic mode)")
	}
	wd := (n + 63) / 64
	t := &Sliced{
		n:       n,
		wd:      wd,
		rng:     rng,
		records: make(map[int32]bool),
		qp:      make([]uint64, n*4*wd),
		ds:      make([]uint64, wd),
		ss:      make([]uint64, wd),
		mad:     make([]uint64, wd),
		mas:     make([]uint64, wd),
		lo:      make([]uint64, wd),
		hi:      make([]uint64, wd),
		srcX:    pauli.NewBits(n),
		srcZ:    pauli.NewBits(n),
		nz:      make([]int, 0, wd),
	}
	t.nextVirtual = -2 // concrete-mode virtual-id range (even negatives)
	t.initRows()
	return t
}

// initRows sets destabilizer i = X_i and stabilizer i = Z_i on zeroed planes.
func (t *Sliced) initRows() {
	for i := 0; i < t.n; i++ {
		w, b := i>>6, uint(i)&63
		pl := t.planes(i)
		pl[w] |= 1 << b        // destab X plane of qubit i, row i
		pl[3*t.wd+w] |= 1 << b // stab Z plane of qubit i, row i
	}
}

// planes returns qubit q's interleaved destab/stab planes:
// [0:wd) destab X, [wd:2wd) destab Z, [2wd:3wd) stab X, [3wd:4wd) stab Z.
func (t *Sliced) planes(q int) []uint64 {
	s := q * 4 * t.wd
	return t.qp[s : s+4*t.wd : s+4*t.wd]
}

// N returns the number of qubits.
func (t *Sliced) N() int { return t.n }

// Records exposes the record table of the current shot.
func (t *Sliced) Records() map[int32]bool { return t.records }

// VirtualID allocates a fresh negative record id (same even-negative range
// as a concrete-mode T, so record tables are interchangeable).
func (t *Sliced) VirtualID() int32 {
	t.nextVirtual -= 2
	return t.nextVirtual + 2
}

// ResetAll reinitializes the tableau to the all-|0⟩ state in place, reusing
// every allocation: the state-reuse hook of the compile-once/run-many path
// (a fresh shot costs zero heap allocations).
func (t *Sliced) ResetAll() {
	clear(t.qp)
	clear(t.ds)
	clear(t.ss)
	clear(t.records)
	t.nextVirtual = -2
	t.initRows()
}

// singlePauli returns the reusable weight-one scratch operator set to Pauli k
// on qubit q (same contract as T.singlePauli: valid until the next call).
func (t *Sliced) singlePauli(q int, k pauli.Kind) *pauli.String {
	if t.single == nil {
		t.single = pauli.NewString(t.n)
		t.singleQ = q
	}
	t.single.SetKind(t.singleQ, pauli.I)
	t.single.SetKind(q, k)
	t.singleQ = q
	return t.single
}

// --- Gates -----------------------------------------------------------------
//
// Each gate is a whole-word update of its operand qubits' planes. The sign
// rules are the conjugation tables in single-sign-bit form; the destabilizer
// and stabilizer halves are fused in one loop (their planes are adjacent).
// The set is exactly the native gates of lowered programs: the nine
// single-qubit rotations and ZZ.

// S applies the phase gate on qubit q (X→Y, Y→−X).
func (t *Sliced) S(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		t.ds[w] ^= pl[w] & pl[wd+w]
		pl[wd+w] ^= pl[w]
		t.ss[w] ^= pl[2*wd+w] & pl[3*wd+w]
		pl[3*wd+w] ^= pl[2*wd+w]
	}
}

// Sdg applies the inverse phase gate on qubit q (X→−Y, Y→X).
func (t *Sliced) Sdg(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		t.ds[w] ^= pl[w] &^ pl[wd+w]
		pl[wd+w] ^= pl[w]
		t.ss[w] ^= pl[2*wd+w] &^ pl[3*wd+w]
		pl[3*wd+w] ^= pl[2*wd+w]
	}
}

// X applies Pauli X on qubit q (Z→−Z, Y→−Y).
func (t *Sliced) X(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		t.ds[w] ^= pl[wd+w]
		t.ss[w] ^= pl[3*wd+w]
	}
}

// Z applies Pauli Z on qubit q (X→−X, Y→−Y).
func (t *Sliced) Z(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		t.ds[w] ^= pl[w]
		t.ss[w] ^= pl[2*wd+w]
	}
}

// Y applies Pauli Y on qubit q (X→−X, Z→−Z).
func (t *Sliced) Y(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		t.ds[w] ^= pl[w] ^ pl[wd+w]
		t.ss[w] ^= pl[2*wd+w] ^ pl[3*wd+w]
	}
}

// SqrtX applies X_{π/4} (Z→Y, Y→−Z).
func (t *Sliced) SqrtX(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		t.ds[w] ^= pl[w] & pl[wd+w]
		pl[w] ^= pl[wd+w]
		t.ss[w] ^= pl[2*wd+w] & pl[3*wd+w]
		pl[2*wd+w] ^= pl[3*wd+w]
	}
}

// SqrtXDg applies X_{−π/4} (Z→−Y, Y→Z).
func (t *Sliced) SqrtXDg(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		t.ds[w] ^= pl[wd+w] &^ pl[w]
		pl[w] ^= pl[wd+w]
		t.ss[w] ^= pl[3*wd+w] &^ pl[2*wd+w]
		pl[2*wd+w] ^= pl[3*wd+w]
	}
}

// SqrtY applies Y_{π/4} (X→−Z, Z→X).
func (t *Sliced) SqrtY(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		x, z := pl[w], pl[wd+w]
		t.ds[w] ^= x &^ z
		pl[w], pl[wd+w] = z, x
		x, z = pl[2*wd+w], pl[3*wd+w]
		t.ss[w] ^= x &^ z
		pl[2*wd+w], pl[3*wd+w] = z, x
	}
}

// SqrtYDg applies Y_{−π/4} (X→Z, Z→−X).
func (t *Sliced) SqrtYDg(q int) {
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		x, z := pl[w], pl[wd+w]
		t.ds[w] ^= z &^ x
		pl[w], pl[wd+w] = z, x
		x, z = pl[2*wd+w], pl[3*wd+w]
		t.ss[w] ^= z &^ x
		pl[2*wd+w], pl[3*wd+w] = z, x
	}
}

// ZZ applies the native two-qubit entangling gate e^{-iπ Z⊗Z/4}: rows with X
// content on exactly one operand pick up the phase and flip both Z bits
// (X_a→Y_aZ_b, Y_a→−X_aZ_b, symmetric in b; rows with X on both are fixed).
func (t *Sliced) ZZ(a, b int) {
	pa, pb, wd := t.planes(a), t.planes(b), t.wd
	for w := 0; w < wd; w++ {
		xa, za, xb, zb := pa[w], pa[wd+w], pb[w], pb[wd+w]
		one := xa ^ xb
		t.ds[w] ^= one & ((xa & za) ^ (xb & zb))
		pa[wd+w] = za ^ one
		pb[wd+w] = zb ^ one
		xa, za, xb, zb = pa[2*wd+w], pa[3*wd+w], pb[2*wd+w], pb[3*wd+w]
		one = xa ^ xb
		t.ss[w] ^= one & ((xa & za) ^ (xb & zb))
		pa[3*wd+w] = za ^ one
		pb[3*wd+w] = zb ^ one
	}
}

// ApplyPauliError applies the Pauli X^x Z^z on qubit q as a stochastic fault
// (Pauli frame update): a row anticommuting with the error picks up −1. In
// bit-sliced form this is one sign-word XOR per plane — the noise
// subsystem's fault-injection hot loop no longer walks any rows.
func (t *Sliced) ApplyPauliError(q int, x, z bool) {
	if !x && !z {
		return
	}
	pl, wd := t.planes(q), t.wd
	for w := 0; w < wd; w++ {
		var fd, fs uint64
		if x {
			fd ^= pl[wd+w]
			fs ^= pl[3*wd+w]
		}
		if z {
			fd ^= pl[w]
			fs ^= pl[2*wd+w]
		}
		t.ds[w] ^= fd
		t.ss[w] ^= fs
	}
}

// --- Anticommutation masks --------------------------------------------------

// antiMaskDS fills dst with the anticommutation mask of p against the
// destabilizer (stab=false) or stabilizer (stab=true) rows: bit r is set iff
// row r anticommutes with p. Weight-one operators collapse to plane copies.
func (t *Sliced) antiMaskDS(dst []uint64, stab bool, p *pauli.String, sq int, sk pauli.Kind, single bool) {
	xo, zo := 0, t.wd
	if stab {
		xo, zo = 2*t.wd, 3*t.wd
	}
	if single {
		pl := t.planes(sq)
		switch sk {
		case pauli.Z:
			copy(dst, pl[xo:xo+t.wd])
		case pauli.X:
			copy(dst, pl[zo:zo+t.wd])
		default:
			for w := 0; w < t.wd; w++ {
				dst[w] = pl[xo+w] ^ pl[zo+w]
			}
		}
		return
	}
	clear(dst)
	eachSetBit(p.ZBits, func(j int) {
		pl := t.planes(j)
		for w := 0; w < t.wd; w++ {
			dst[w] ^= pl[xo+w]
		}
	})
	eachSetBit(p.XBits, func(j int) {
		pl := t.planes(j)
		for w := 0; w < t.wd; w++ {
			dst[w] ^= pl[zo+w]
		}
	})
}

// eachSetBit calls f with the index of every set bit of b.
func eachSetBit(b pauli.Bits, f func(j int)) {
	for w, u := range b {
		for u != 0 {
			f(w*64 + bits.TrailingZeros64(u))
			u &= u - 1
		}
	}
}

func firstBit(m []uint64) int {
	for w, u := range m {
		if u != 0 {
			return w*64 + bits.TrailingZeros64(u)
		}
	}
	return -1
}

func anyBit(m []uint64) bool {
	for _, u := range m {
		if u != 0 {
			return true
		}
	}
	return false
}

// --- Measurement ------------------------------------------------------------

// prefixXor64 returns the inclusive prefix parity of x: bit k of the result
// is the parity of bits 0..k of x.
func prefixXor64(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}

// detValue computes the outcome bit of a Pauli p that commutes with every
// stabilizer, given the mask m of destabilizer rows anticommuting with p:
// the product Q of the stabilizer partners of those rows equals ±p, and the
// measured bit is that sign. The stabilizer rows all commute, so Q's phase
// splits into order-free pieces accumulated plane-by-plane: the XOR of the
// selected sign bits, the total Y count of the selected rows (mod 4), and
// the pairwise-ordering cross parity Σ_{a<b}|z_a ∧ x_b| computed with a
// prefix-parity trick inside each word. The per-qubit content parities
// double as the reconstruction check (Q must equal p exactly). Only the
// nonzero words of m are walked: a zero mask word selects no row, so it
// contributes to no count, parity or carry.
func (t *Sliced) detValue(p *pauli.String, m []uint64) bool {
	sgn := 0
	nz := t.nz[:0]
	for w, mw := range m {
		if mw != 0 {
			sgn ^= bits.OnesCount64(t.ss[w]&mw) & 1
			nz = append(nz, w)
		}
	}
	ycnt, cross := 0, 0
	wd := t.wd
	var rx, rz uint64 // Q's content on the current word's qubits
	for j := 0; j < t.n; j++ {
		pl := t.planes(j)
		carry := uint64(0)
		xpar, zpar := uint64(0), uint64(0)
		for _, w := range nz {
			mw := m[w]
			xw, zw := pl[2*wd+w]&mw, pl[3*wd+w]&mw
			if xw|zw == 0 {
				continue
			}
			ycnt += bits.OnesCount64(xw & zw)
			ep := (prefixXor64(zw) << 1) ^ carry
			cross ^= bits.OnesCount64(ep&xw) & 1
			if bits.OnesCount64(zw)&1 == 1 {
				carry = ^carry
			}
			xpar ^= uint64(bits.OnesCount64(xw))
			zpar ^= uint64(bits.OnesCount64(zw))
		}
		b := uint(j) & 63
		rx |= (xpar & 1) << b
		rz |= (zpar & 1) << b
		if b == 63 || j == t.n-1 {
			keep := ^uint64(0) >> (63 - b)
			if rx != p.XBits[j>>6]&keep || rz != p.ZBits[j>>6]&keep {
				panic("tableau: deterministic reconstruction failed (operator not in group?)")
			}
			rx, rz = 0, 0
		}
	}
	d := (int(p.Phase) - (ycnt + 2*cross + 2*sgn)) % 4
	d = (d + 8) % 4
	switch d {
	case 0:
		return false
	case 2:
		return true
	}
	panic("tableau: non-real deterministic phase")
}

// signBit reports p's sign in single-sign-bit form: p = (−1)^signBit · ∏P_q
// for a Hermitian p (i^Phase with the Y content factored out).
func signBit(p *pauli.String) bool {
	y := p.XBits.AndCount(p.ZBits)
	d := (int(p.Phase) - y) % 4
	d = (d + 8) % 4
	switch d {
	case 0:
		return false
	case 2:
		return true
	}
	panic("tableau: signBit of non-Hermitian string")
}

// MeasurePauli measures the Hermitian Pauli p, assigning record index rec:
// the bit-sliced counterpart of T.MeasurePauli, with the same RNG draw
// sequence (exactly one Intn(2) per random outcome, none per deterministic
// one), so record tables match a concrete-mode T bit-for-bit per seed.
func (t *Sliced) MeasurePauli(p *pauli.String, rec int32) Outcome {
	if !p.Hermitian() {
		panic("tableau: measuring non-Hermitian Pauli " + p.String())
	}
	sq, sk, single := p.SingleQubit()
	mas := t.mas[:t.wd]
	t.antiMaskDS(mas, true, p, sq, sk, single)
	ip := firstBit(mas)
	if ip < 0 {
		// Deterministic outcome.
		mad := t.mad[:t.wd]
		t.antiMaskDS(mad, false, p, sq, sk, single)
		bit := t.detValue(p, mad)
		t.records[rec] = bit
		return Outcome{Record: rec, Deterministic: true, Derived: expr.FromConst(bit)}
	}
	// Random outcome.
	bit := t.rng.Intn(2) == 1
	t.records[rec] = bit

	// Extract the collapsing stabilizer (row ip) into row-major scratch: the
	// fix loops below walk its support once per group, and the recycle step
	// reuses it as the new destabilizer content.
	ipw, ipb := ip>>6, uint(ip)&63
	clear(t.srcX)
	clear(t.srcZ)
	wd := t.wd
	for j := 0; j < t.n; j++ {
		pl := t.planes(j)
		t.srcX[j>>6] |= (pl[2*wd+ipw] >> ipb & 1) << (uint(j) & 63)
		t.srcZ[j>>6] |= (pl[3*wd+ipw] >> ipb & 1) << (uint(j) & 63)
	}
	srcSign := t.ss[ipw]>>ipb&1 == 1

	// Row masks of every other anticommuting row, per group.
	mad := t.mad[:t.wd]
	t.antiMaskDS(mad, false, p, sq, sk, single)
	mad[ipw] &^= 1 << ipb
	mas[ipw] &^= 1 << ipb

	// Multiply the old stabilizer into every masked row.
	t.fixDS(false, mad, srcSign)
	t.fixDS(true, mas, srcSign)

	// Recycle: destabilizer row ip takes the old stabilizer; stabilizer row
	// ip becomes (−1)^outcome · p.
	for j := 0; j < t.n; j++ {
		pl := t.planes(j)
		jb := uint(j) & 63
		setPlaneBit(pl[0:wd], ipw, ipb, t.srcX[j>>6]>>jb&1 == 1)
		setPlaneBit(pl[wd:2*wd], ipw, ipb, t.srcZ[j>>6]>>jb&1 == 1)
		setPlaneBit(pl[2*wd:3*wd], ipw, ipb, p.XBits.Get(j))
		setPlaneBit(pl[3*wd:4*wd], ipw, ipb, p.ZBits.Get(j))
	}
	setPlaneBit(t.ds, ipw, ipb, srcSign)
	setPlaneBit(t.ss, ipw, ipb, bit != signBit(p))
	return Outcome{Record: rec, Deterministic: false}
}

func setPlaneBit(pl []uint64, w int, b uint, v bool) {
	if v {
		pl[w] |= 1 << b
	} else {
		pl[w] &^= 1 << b
	}
}

// rowsumQubit folds one source-row site (x1, z1) into the masked rows of
// one plane pair: the per-qubit inner step of the CHP rowsum. Phase
// contributions accumulate in the two-bit mod-4 counters (lo, hi); the
// planes are updated in place behind the mask.
func rowsumQubit(x1, z1 bool, xp, zp, m, lo, hi []uint64) {
	for w, mw := range m {
		if mw == 0 {
			continue
		}
		x2, z2 := xp[w]&mw, zp[w]&mw
		var plus, minus uint64
		switch {
		case x1 && z1:
			plus, minus = z2&^x2, x2&^z2
		case x1:
			plus, minus = z2&x2, z2&^x2
		default:
			plus, minus = x2&^z2, x2&z2
		}
		c := lo[w] & plus
		lo[w] ^= plus
		hi[w] ^= c
		b := ^lo[w] & minus
		lo[w] ^= minus
		hi[w] ^= b
		if x1 {
			xp[w] ^= mw
		}
		if z1 {
			zp[w] ^= mw
		}
	}
}

// rowsumSigns finishes a rowsum pass: the source row commutes with every
// selected row, so each counter's low bit must end clear and the high bit
// is that row's sign contribution, folded together with the source sign.
func rowsumSigns(sg, m, lo, hi []uint64, srcSign bool) {
	var sb uint64
	if srcSign {
		sb = ^uint64(0)
	}
	for w, mw := range m {
		if lo[w]&mw != 0 {
			panic("tableau: anticommuting row product (non-Hermitian row)")
		}
		sg[w] ^= mw & (hi[w] ^ sb)
	}
}

// eachSrcQubit calls f for every qubit in the extracted source row's support.
func (t *Sliced) eachSrcQubit(f func(j int, x1, z1 bool)) {
	for sw, u := range t.srcX {
		u |= t.srcZ[sw]
		for u != 0 {
			j := sw*64 + bits.TrailingZeros64(u)
			u &= u - 1
			f(j, t.srcX.Get(j), t.srcZ.Get(j))
		}
	}
}

// LastCollapse calls f for every qubit in the support of the stabilizer row
// the most recent random measurement recycled (the row that anticommuted
// with the measured operator and collapsed), with that row's X/Z bits. The
// scratch it reads is valid until the next random measurement. The
// Pauli-frame engine records this row while compiling its reference trace:
// multiplying it into a shot's frame converts between the two collapse
// branches, which is what keeps frame-engine records bit-identical to a
// tableau run whose coin came up differently from the reference shot's.
func (t *Sliced) LastCollapse(f func(j int, x, z bool)) {
	t.eachSrcQubit(f)
}

// fixDS multiplies the extracted source row (srcX/srcZ, sign srcSign) into
// every destabilizer (stab=false) or stabilizer (stab=true) row selected by
// m, phases tracked exactly by the CHP rowsum.
func (t *Sliced) fixDS(stab bool, m []uint64, srcSign bool) {
	if !anyBit(m) {
		return
	}
	xo, zo := 0, t.wd
	sg := t.ds
	if stab {
		xo, zo = 2*t.wd, 3*t.wd
		sg = t.ss
	}
	lo, hi := t.lo[:t.wd], t.hi[:t.wd]
	clear(lo)
	clear(hi)
	t.eachSrcQubit(func(j int, x1, z1 bool) {
		pl := t.planes(j)
		rowsumQubit(x1, z1, pl[xo:xo+t.wd], pl[zo:zo+t.wd], m, lo, hi)
	})
	rowsumSigns(sg, m, lo, hi, srcSign)
}

// MeasureZ measures Pauli Z on qubit q under record index rec without
// allocating the measurement operator (the hot path of compiled programs).
func (t *Sliced) MeasureZ(q int, rec int32) Outcome {
	return t.MeasurePauli(t.singlePauli(q, pauli.Z), rec)
}

// Reset forces qubit q into |0⟩ (hardware Prepare_Z semantics): an implicit
// Z measurement under a virtual record id followed by a conditional X flip,
// exactly as T.Reset, so virtual-id sequences and RNG draws line up.
func (t *Sliced) Reset(q int) {
	rec := t.VirtualID()
	t.MeasureZ(q, rec)
	if t.records[rec] {
		// Conditional correction: exactly a Pauli X on q.
		t.X(q)
	}
}

// ExpectationValue returns the expectation of the Hermitian Pauli p: 0 when
// p anticommutes with some stabilizer, otherwise its ±1 sign.
func (t *Sliced) ExpectationValue(p *pauli.String) float64 {
	sq, sk, single := p.SingleQubit()
	mas := t.mas[:t.wd]
	t.antiMaskDS(mas, true, p, sq, sk, single)
	if anyBit(mas) {
		return 0
	}
	mad := t.mad[:t.wd]
	t.antiMaskDS(mad, false, p, sq, sk, single)
	if t.detValue(p, mad) {
		return -1
	}
	return 1
}
