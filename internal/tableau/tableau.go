// Package tableau implements the stabilizer tableaus: T, an
// Aaronson–Gottesman tableau whose phase bits are symbolic XOR expressions
// over measurement-record indices, and Inverse, the concrete inverse
// tableau every simulation shot runs on (inverse.go).
//
// T serves two roles in this repository:
//
//   - symbolic mode (no RNG): the compiler-side tracker; measurement outcomes
//     stay symbolic, so every stabilizer sign and logical-operator value is
//     maintained as a formula over hardware measurement records. These
//     formulas are the post-processing recipes of TISCC Sec 4.5;
//   - concrete mode (with an RNG): random measurement outcomes are sampled
//     and recorded and Pauli-string expectation values queried exactly. It
//     is the test oracle of the simulator's own state, the inverse tableau
//     Inverse, which implements the same State contract.
//
// Rows store Paulis as i^K · X^x · Z^z with K an exponent of i modulo 4 kept
// exactly, plus a symbolic (−1)^Sym factor. Keeping the full i-exponent (as
// opposed to CHP's normalized sign bit) makes every gate update a pure bit
// operation with no phase-lookup table.
package tableau

import (
	"math/bits"
	"math/rand"

	"tiscc/internal/expr"
	"tiscc/internal/pauli"
)

// Row is one tableau row: the Pauli i^K (−1)^Sym X^x Z^z.
type Row struct {
	X, Z pauli.Bits
	K    uint8 // exponent of i, mod 4
	Sym  expr.Expr
}

// Pauli converts the row's concrete part to a pauli.String (Sym excluded).
func (r *Row) Pauli(n int) *pauli.String {
	return &pauli.String{N: n, XBits: r.X.Clone(), ZBits: r.Z.Clone(), Phase: r.K % 4}
}

// T is the tableau. Rows 0..n-1 are destabilizers, n..2n-1 stabilizers.
// Observable rows are tracked separately: they transform under gates and
// measurements but are never used as stabilizers.
type T struct {
	n      int
	destab []Row
	stab   []Row
	obs    []Row

	rng         *rand.Rand // nil → symbolic mode
	records     map[int32]bool
	scratch     Row
	supp        []int         // support words of the current operand (see operand)
	single      *pauli.String // reusable weight-≤1 scratch operator
	singleQ     int           // qubit the scratch operator currently acts on
	nextVirtual int32
	// changes counts the operations that may have changed a row's X/Z
	// bits (see Changes).
	changes uint64
}

// initialVirtual returns the first virtual id of the tableau's mode range.
func (t *T) initialVirtual() int32 {
	// Disjoint virtual-id ranges: concrete mode uses even negatives,
	// symbolic mode odd ones.
	if t.rng != nil {
		return -2
	}
	return -1
}

// New returns a tableau over n qubits, all initialized to |0⟩. If rng is
// nil the tableau runs in symbolic mode.
func New(n int, rng *rand.Rand) *T {
	t := &T{n: n, rng: rng, records: make(map[int32]bool)}
	t.nextVirtual = t.initialVirtual()
	t.destab = make([]Row, n)
	t.stab = make([]Row, n)
	for i := 0; i < n; i++ {
		t.destab[i] = Row{X: pauli.NewBits(n), Z: pauli.NewBits(n)}
		t.destab[i].X.Set(i, true)
		t.stab[i] = Row{X: pauli.NewBits(n), Z: pauli.NewBits(n)}
		t.stab[i].Z.Set(i, true)
	}
	t.scratch = Row{X: pauli.NewBits(n), Z: pauli.NewBits(n)}
	t.supp = make([]int, 0, len(t.scratch.X))
	return t
}

// N returns the number of qubits.
func (t *T) N() int { return t.n }

// Changes returns the tableau's change counter. Every operation that may
// change a row's X/Z bits advances it: the gates that move Pauli content
// (H, S, Sdg, CX, the square roots, ZZ and Swap), the collapse after a
// random measurement, and ResetAll. Sign-only updates (the Pauli gates,
// ConditionalPauli, ApplyPauliError) and deterministic measurements leave
// it alone. Whether a measurement is deterministic depends only on the
// stabilizers' X/Z bits, so an operator proved deterministic stays so
// while the counter holds still.
func (t *T) Changes() uint64 { return t.changes }

// Records exposes the record table (concrete mode fills it with sampled and
// derived bits; symbolic mode leaves it empty).
func (t *T) Records() map[int32]bool { return t.records }

// ResetAll reinitializes the tableau to the all-|0⟩ state in place, reusing
// every allocation (rows, scratch, record table). It is the state-reuse hook
// of the compile-once/run-many simulation path: a fresh shot costs zero
// heap allocations.
func (t *T) ResetAll() {
	t.changes++
	for i := 0; i < t.n; i++ {
		d, s := &t.destab[i], &t.stab[i]
		for w := range d.X {
			d.X[w], d.Z[w], s.X[w], s.Z[w] = 0, 0, 0, 0
		}
		d.X.Set(i, true)
		s.Z.Set(i, true)
		d.K, s.K = 0, 0
		d.Sym, s.Sym = expr.Expr{}, expr.Expr{}
	}
	t.obs = t.obs[:0]
	clear(t.records)
	t.nextVirtual = t.initialVirtual()
}

// singlePauli returns the reusable weight-one scratch operator set to Pauli k
// on qubit q. The returned string is only valid until the next singlePauli
// call; callers must not retain it (MeasurePauli and ConditionalPauli copy
// what they need).
func (t *T) singlePauli(q int, k pauli.Kind) *pauli.String {
	if t.single == nil {
		t.single = pauli.NewString(t.n)
		t.singleQ = q
	}
	t.single.SetKind(t.singleQ, pauli.I)
	t.single.SetKind(q, k)
	t.singleQ = q
	return t.single
}

// groups returns the three row groups (destabilizers, stabilizers,
// observables). Gates iterate them directly so the per-row update inlines
// into a tight loop instead of dispatching a closure per row — gate
// application is the innermost loop of the run-many simulation path.
func (t *T) groups() [3][]Row { return [3][]Row{t.destab, t.stab, t.obs} }

// --- Gates -----------------------------------------------------------------

// H applies a Hadamard on qubit q.
func (t *T) H(q int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			x, z := r.X.Get(q), r.Z.Get(q)
			if x && z {
				r.K = (r.K + 2) % 4
			}
			r.X.Set(q, z)
			r.Z.Set(q, x)
		}
	}
}

// S applies the phase gate (≡ Z_{π/4} up to global phase) on qubit q.
func (t *T) S(q int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.X.Get(q) {
				r.K = (r.K + 1) % 4
				r.Z.Flip(q)
			}
		}
	}
}

// Sdg applies the inverse phase gate on qubit q (fused S³: one row pass).
func (t *T) Sdg(q int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.X.Get(q) {
				r.K = (r.K + 3) % 4
				r.Z.Flip(q)
			}
		}
	}
}

// X applies Pauli X on qubit q.
func (t *T) X(q int) {
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.Z.Get(q) {
				r.K = (r.K + 2) % 4
			}
		}
	}
}

// Z applies Pauli Z on qubit q.
func (t *T) Z(q int) {
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.X.Get(q) {
				r.K = (r.K + 2) % 4
			}
		}
	}
}

// Y applies Pauli Y on qubit q.
func (t *T) Y(q int) {
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.X.Get(q) != r.Z.Get(q) {
				r.K = (r.K + 2) % 4
			}
		}
	}
}

// CX applies a CNOT with control c and target d. In the i^K representation
// the update is phase-free: x_d ^= x_c, z_c ^= z_d.
func (t *T) CX(c, d int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.X.Get(c) {
				r.X.Flip(d)
			}
			if r.Z.Get(d) {
				r.Z.Flip(c)
			}
		}
	}
}

// SqrtX applies X_{π/4} = e^{-iπX/4} (conjugation: Z→Y, Y→−Z).
func (t *T) SqrtX(q int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.Z.Get(q) {
				r.K = (r.K + 1) % 4
				r.X.Flip(q)
			}
		}
	}
}

// SqrtXDg applies X_{-π/4} (conjugation: Z→−Y, Y→Z).
func (t *T) SqrtXDg(q int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.Z.Get(q) {
				r.K = (r.K + 3) % 4
				r.X.Flip(q)
			}
		}
	}
}

// SqrtY applies Y_{π/4} = e^{-iπY/4} (conjugation: X→−Z, Z→X).
func (t *T) SqrtY(q int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			x, z := r.X.Get(q), r.Z.Get(q)
			if x && !z {
				r.K = (r.K + 2) % 4
			}
			r.X.Set(q, z)
			r.Z.Set(q, x)
		}
	}
}

// SqrtYDg applies Y_{-π/4} (conjugation: X→Z, Z→−X).
func (t *T) SqrtYDg(q int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			x, z := r.X.Get(q), r.Z.Get(q)
			if !x && z {
				r.K = (r.K + 2) % 4
			}
			r.X.Set(q, z)
			r.Z.Set(q, x)
		}
	}
}

// ZZ applies the native two-qubit entangling gate e^{-iπ Z⊗Z/4}. The update
// is the fusion of CX(a,b)·S(b)·CX(a,b) into a single row pass: rows with
// X content on exactly one of the two qubits pick up i and flip both Z bits.
func (t *T) ZZ(a, b int) {
	t.changes++
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if r.X.Get(a) != r.X.Get(b) {
				r.K = (r.K + 1) % 4
				r.Z.Flip(a)
				r.Z.Flip(b)
			}
		}
	}
}

// --- Row algebra ------------------------------------------------------------

// mulInto sets dst ← src · dst (apply dst first, then src), tracking phase
// exactly: (i^a X^{xa} Z^{za})(i^b X^{xb} Z^{zb}) picks up (−1)^{za·xb}.
func mulInto(dst, src *Row) {
	sign := src.Z.AndCount(dst.X) % 2
	dst.K = (dst.K + src.K + uint8(sign)*2) % 4
	dst.X.Xor(src.X)
	dst.Z.Xor(src.Z)
	dst.Sym = dst.Sym.Xor(src.Sym)
}

// operand is a Pauli prepared for anticommutation tests against rows. A
// weight-one operand collapses the symplectic product to one or two bit
// tests: measurement and reset are dominated by these tests, and in
// compiled circuits nearly every measured operator is a single-site Z. Any
// other operand lists the words where it has support, the only words on
// which a row can anticommute with it.
type operand struct {
	p      *pauli.String
	sq     int
	sk     pauli.Kind
	single bool
	supp   []int // support words (aliases T's scratch; not for single)
}

// operand prepares p for row tests. Its support-word list lives in T's
// scratch, valid until the next operand call.
func (t *T) operand(p *pauli.String) operand {
	o := operand{p: p}
	o.sq, o.sk, o.single = p.SingleQubit()
	if !o.single {
		s := t.supp[:0]
		for w, x := range p.XBits {
			if x|p.ZBits[w] != 0 {
				s = append(s, w)
			}
		}
		t.supp, o.supp = s, s
	}
	return o
}

// anti reports whether row r anticommutes with the operand.
func (o *operand) anti(r *Row) bool {
	if o.single {
		switch o.sk {
		case pauli.Z:
			return r.X.Get(o.sq)
		case pauli.X:
			return r.Z.Get(o.sq)
		default:
			return r.X.Get(o.sq) != r.Z.Get(o.sq)
		}
	}
	odd := 0
	for _, w := range o.supp {
		odd ^= bits.OnesCount64(r.X[w]&o.p.ZBits[w] ^ r.Z[w]&o.p.XBits[w])
	}
	return odd&1 == 1
}

// --- Measurement ------------------------------------------------------------

// Outcome describes one measurement.
type Outcome struct {
	Record        int32     // record index assigned to this measurement
	Deterministic bool      // whether the outcome was forced by the state
	Derived       expr.Expr // for deterministic outcomes: value in terms of earlier records
}

// Value returns the concrete bit of the outcome in concrete mode.
func (t *T) Value(o Outcome) bool { return t.records[o.Record] }

// MeasurePauli measures the Hermitian Pauli p, assigning record index rec.
// In concrete mode the sampled/derived bit is stored in the record table.
// The outcome's value formula is always the single record reference {rec}.
func (t *T) MeasurePauli(p *pauli.String, rec int32) Outcome { return t.measure(p, rec, true) }

// Measure measures the Hermitian Pauli p under record index rec, as
// MeasurePauli does, for a caller that discards the outcome's value: a
// symbolic tracker then never derives a deterministic outcome's value
// formula. It reports whether the outcome was deterministic.
func (t *T) Measure(p *pauli.String, rec int32) bool {
	return t.measure(p, rec, t.rng != nil).Deterministic
}

// measure is MeasurePauli; with derive unset, a deterministic outcome's
// Derived formula is left empty.
func (t *T) measure(p *pauli.String, rec int32, derive bool) Outcome {
	if !p.Hermitian() {
		panic("tableau: measuring non-Hermitian Pauli " + p.String())
	}
	o := t.operand(p)
	// Find an anticommuting stabilizer.
	ip := -1
	for i := 0; i < t.n; i++ {
		if o.anti(&t.stab[i]) {
			ip = i
			break
		}
	}
	if ip < 0 {
		// Deterministic outcome.
		if !derive {
			return Outcome{Record: rec, Deterministic: true}
		}
		derived := t.deterministicValue(&o)
		out := Outcome{Record: rec, Deterministic: true, Derived: derived}
		if t.rng != nil {
			t.records[rec] = derived.Eval(t.records)
		}
		return out
	}
	// Random outcome.
	t.changes++
	var sym expr.Expr
	if t.rng != nil {
		bit := t.rng.Intn(2) == 1
		t.records[rec] = bit
		sym = expr.FromConst(bit)
	} else {
		sym = expr.FromID(rec)
	}
	// Fix every other anticommuting row by multiplying in the old stabilizer.
	// Row ip itself is referenced in place (the fix loops never touch it) and
	// its storage is recycled below, so no row is cloned.
	old := &t.stab[ip]
	for i := range t.destab {
		if i != ip && o.anti(&t.destab[i]) {
			mulInto(&t.destab[i], old)
		}
	}
	for i := range t.stab {
		if i != ip && o.anti(&t.stab[i]) {
			mulInto(&t.stab[i], old)
		}
	}
	for i := range t.obs {
		if o.anti(&t.obs[i]) {
			mulInto(&t.obs[i], old)
		}
	}
	// Old stabilizer becomes the destabilizer of the new one; the displaced
	// destabilizer row donates its bit storage to the new stabilizer
	// (−1)^outcome · p.
	recycled := t.destab[ip]
	t.destab[ip] = t.stab[ip]
	copy(recycled.X, p.XBits)
	copy(recycled.Z, p.ZBits)
	recycled.K = p.Phase % 4
	recycled.Sym = sym
	t.stab[ip] = recycled
	return Outcome{Record: rec, Deterministic: false}
}

// deterministicValue computes the value expression of a Pauli operand p
// that commutes with every stabilizer: the bit b with p|ψ⟩ = (−1)^b|ψ⟩.
func (t *T) deterministicValue(o *operand) expr.Expr {
	p := o.p
	sc := &t.scratch
	for i := range sc.X {
		sc.X[i], sc.Z[i] = 0, 0
	}
	sc.K, sc.Sym = 0, expr.Zero()
	for i := 0; i < t.n; i++ {
		if o.anti(&t.destab[i]) {
			mulInto(sc, &t.stab[i])
		}
	}
	if !sc.X.Equal(p.XBits) || !sc.Z.Equal(p.ZBits) {
		panic("tableau: deterministic reconstruction failed (operator not in group?)")
	}
	// scratch = i^{ks}(−1)^{sym} X^x Z^z stabilizes; p = i^{kp} X^x Z^z.
	// p|ψ⟩ = i^{kp−ks}(−1)^{sym}|ψ⟩.
	d := (int(p.Phase) - int(sc.K) + 8) % 4
	switch d {
	case 0:
		return sc.Sym
	case 2:
		return sc.Sym.XorConst(true)
	}
	panic("tableau: non-real deterministic phase")
}

// Expectation returns (defined, value) for the Hermitian Pauli p: defined is
// false when p anticommutes with some stabilizer (⟨p⟩ = 0); otherwise value
// is the ±1 sign as a bit expression (true = −1).
func (t *T) Expectation(p *pauli.String) (bool, expr.Expr) {
	o := t.operand(p)
	for i := 0; i < t.n; i++ {
		if o.anti(&t.stab[i]) {
			return false, expr.Zero()
		}
	}
	return true, t.deterministicValue(&o)
}

// ExpectationValue returns the expectation of p in concrete mode as a float:
// +1, −1 or 0.
func (t *T) ExpectationValue(p *pauli.String) float64 {
	ok, e := t.Expectation(p)
	if !ok {
		return 0
	}
	if e.Eval(t.records) {
		return -1
	}
	return 1
}

// VirtualID allocates a fresh negative record id for an implicit
// measurement whose value no hardware record reports (reset collapses,
// non-Clifford injections). Concrete and symbolic tableaus draw from
// disjoint ranges (even vs odd) so that a formula built against one can
// never silently evaluate against the other's record table.
func (t *T) VirtualID() int32 {
	t.nextVirtual -= 2
	return t.nextVirtual + 2
}

// Reset forces qubit q into |0⟩ (hardware Prepare_Z semantics: previous
// state is discarded). It is implemented as an implicit Z measurement
// followed by a classically conditioned X flip, so that rows sharing Z
// content with the reset qubit keep consistent signs; the implicit outcome
// is recorded under a virtual (negative) id.
func (t *T) Reset(q int) {
	rec := t.VirtualID()
	o := t.MeasurePauli(t.singlePauli(q, pauli.Z), rec)
	var e expr.Expr
	switch {
	case t.rng != nil:
		e = expr.FromConst(t.records[rec])
	case o.Deterministic:
		e = o.Derived
	default:
		e = expr.FromID(rec)
	}
	t.ConditionalPauli(t.singlePauli(q, pauli.X), e)
}

// MeasureZ measures Pauli Z on qubit q under record index rec without
// allocating the measurement operator (the hot path of compiled programs).
func (t *T) MeasureZ(q int, rec int32) Outcome {
	return t.MeasurePauli(t.singlePauli(q, pauli.Z), rec)
}

// ConditionalPauli applies the Pauli p conditioned on the (symbolic) bit e:
// every row anticommuting with p has its sign multiplied by (−1)^e. With a
// constant-true e this is an ordinary Pauli gate; with a record expression
// it implements classically controlled corrections; with a virtual id it
// marks a value as symbolically unknown. A constant-false e is a no-op and
// returns without touching the rows (in concrete mode half of all reset
// corrections take this exit).
func (t *T) ConditionalPauli(p *pauli.String, e expr.Expr) {
	if len(e.IDs) == 0 && !e.Const {
		return
	}
	o := t.operand(p)
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if o.anti(r) {
				r.Sym = r.Sym.Xor(e)
			}
		}
	}
}

// Swap exchanges the states of qubits a and b (three CNOTs).
func (t *T) Swap(a, b int) { t.CX(a, b); t.CX(b, a); t.CX(a, b) }

// ApplyPauliError applies the Pauli X^x Z^z on qubit q as a stochastic fault
// (Pauli frame update): every row anticommuting with the error picks up a −1
// phase. One row pass regardless of which of X, Y or Z fired, so the noise
// subsystem's fault-injection hot loop costs the same as a native Pauli gate.
// A (false, false) error is the identity and returns immediately.
func (t *T) ApplyPauliError(q int, x, z bool) {
	if !x && !z {
		return
	}
	for _, rows := range t.groups() {
		for i := range rows {
			r := &rows[i]
			if (x && r.Z.Get(q)) != (z && r.X.Get(q)) {
				r.K = (r.K + 2) % 4
			}
		}
	}
}

// --- Observables ------------------------------------------------------------

// AddObservable registers a Pauli to be tracked through subsequent gates and
// measurements; returns its handle.
func (t *T) AddObservable(p *pauli.String) int {
	t.obs = append(t.obs, Row{X: p.XBits.Clone(), Z: p.ZBits.Clone(), K: p.Phase % 4})
	return len(t.obs) - 1
}

// Observable returns the current form of observable h: the Pauli content and
// the accumulated correction expression (true meaning an extra −1), i.e.
// the original observable now equals (−1)^corr × returned Pauli.
func (t *T) Observable(h int) (*pauli.String, expr.Expr) {
	r := t.obs[h]
	return r.Pauli(t.n), r.Sym
}

// ObservableXorSign folds an extra sign term into a tracked observable.
// Patch-level code uses this to compensate deliberate logical-frame changes
// (e.g. an applied logical Pauli) so that the observable's correction keeps
// carrying only measurement-induced terms.
func (t *T) ObservableXorSign(h int, e expr.Expr) {
	t.obs[h].Sym = t.obs[h].Sym.Xor(e)
}
