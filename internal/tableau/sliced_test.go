package tableau

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tiscc/internal/expr"
	"tiscc/internal/pauli"
)

// effectiveRow folds a row-major row's symbolic constant into its phase so
// rows from both representations compare as plain operators. In concrete
// mode every Sym is a constant expression.
func effectiveRow(p *pauli.String, sym expr.Expr, recs map[int32]bool) *pauli.String {
	out := p.Clone()
	if sym.Eval(recs) {
		out.Negate()
	}
	return out
}

// rowsOf extracts the (destabilizer, stabilizer) rows of either engine with
// all sign information folded into the Pauli phases.
func rowsOf(t *testing.T, st State) (destab, stab []*pauli.String) {
	t.Helper()
	switch v := st.(type) {
	case *T:
		destab, stab = v.DestabilizerStrings(), v.StabilizerStrings()
		for i := range stab {
			stab[i] = effectiveRow(stab[i], v.StabilizerSym(i), v.Records())
		}
		// Destabilizer Syms are not exported (they never affect outcomes);
		// compare destabilizers up to sign via content below.
		return destab, stab
	case *Sliced:
		return v.DestabilizerStrings(), v.StabilizerStrings()
	}
	t.Fatalf("unknown state %T", st)
	return nil, nil
}

// canonicalForm Gauss-eliminates a set of commuting Hermitian generators to
// a unique canonical generator list (sorted pivot order, sign tracked
// exactly), so two engines' stabilizer groups compare independently of the
// incidental generator basis.
func canonicalForm(gens []*pauli.String) []string {
	if len(gens) == 0 {
		return nil
	}
	n := gens[0].N
	work := make([]*pauli.String, len(gens))
	for i, g := range gens {
		work[i] = g.Clone()
	}
	row := 0
	// Pivot on X bits then Z bits, CHP canonical-form order.
	for pass := 0; pass < 2; pass++ {
		for q := 0; q < n; q++ {
			pv := -1
			for i := row; i < len(work); i++ {
				hit := work[i].XBits.Get(q)
				if pass == 1 {
					hit = work[i].ZBits.Get(q) && !work[i].XBits.Get(q)
				}
				if hit {
					pv = i
					break
				}
			}
			if pv < 0 {
				continue
			}
			work[row], work[pv] = work[pv], work[row]
			for i := 0; i < len(work); i++ {
				if i == row {
					continue
				}
				hit := work[i].XBits.Get(q)
				if pass == 1 {
					hit = work[i].ZBits.Get(q) && !work[i].XBits.Get(q)
				}
				if hit {
					work[i].Mul(work[row])
				}
			}
			row++
		}
	}
	out := make([]string, len(work))
	for i, g := range work {
		out[i] = g.String()
	}
	sort.Strings(out)
	return out
}

// compareStates asserts the two engines hold identical states: record
// tables, row-for-row stabilizers (sign included), destabilizer content,
// and canonical stabilizer forms.
func compareStates(t *testing.T, step string, rm *T, sl *Sliced) {
	t.Helper()
	ra, rb := rm.Records(), sl.Records()
	if len(ra) != len(rb) {
		t.Fatalf("%s: record count %d vs %d", step, len(ra), len(rb))
	}
	for k, v := range ra {
		if bv, ok := rb[k]; !ok || bv != v {
			t.Fatalf("%s: record %d: row-major %v, sliced %v (present %v)", step, k, v, bv, ok)
		}
	}
	da, sa := rowsOf(t, rm)
	db, sb := rowsOf(t, sl)
	for i := range sa {
		if !sa[i].Equal(sb[i]) {
			t.Fatalf("%s: stabilizer %d differs:\n  row-major %s\n  sliced    %s", step, i, sa[i], sb[i])
		}
		if !da[i].EqualUpToPhase(db[i]) {
			t.Fatalf("%s: destabilizer %d content differs:\n  row-major %s\n  sliced    %s", step, i, da[i], db[i])
		}
	}
	ca, cb := canonicalForm(sa), canonicalForm(sb)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%s: canonical form row %d differs: %s vs %s", step, i, ca[i], cb[i])
		}
	}
}

// drive applies one random operation (gate, Pauli frame injection, reset or
// measurement) identically to both engines. Gates are the native set only —
// the nine single-qubit rotations and ZZ, which together generate the full
// Clifford group — applied singly or as short composites.
func drive(opRng *rand.Rand, rm *T, sl *Sliced, n int, nextRec *int32) string {
	return driveOn(opRng, rm, sl, n, nil, nextRec)
}

// driveOn is drive restricted to the qubits in active (every qubit when
// active is nil; otherwise it lists at least two).
func driveOn(opRng *rand.Rand, rm *T, sl *Sliced, n int, active []int, nextRec *int32) string {
	q := pickQubit(opRng, n, active)
	q2 := pickQubit(opRng, n, active)
	for n > 1 && q2 == q {
		q2 = pickQubit(opRng, n, active)
	}
	switch op := opRng.Intn(18); op {
	case 0: // Hadamard up to global phase: X·SqrtY
		for _, st := range []State{rm, sl} {
			st.SqrtY(q)
			st.X(q)
		}
		return fmt.Sprintf("SqrtY+X(%d)", q)
	case 1:
		rm.S(q)
		sl.S(q)
		return fmt.Sprintf("S(%d)", q)
	case 2:
		rm.Sdg(q)
		sl.Sdg(q)
		return fmt.Sprintf("Sdg(%d)", q)
	case 3:
		rm.X(q)
		sl.X(q)
		return fmt.Sprintf("X(%d)", q)
	case 4:
		rm.Y(q)
		sl.Y(q)
		return fmt.Sprintf("Y(%d)", q)
	case 5:
		rm.Z(q)
		sl.Z(q)
		return fmt.Sprintf("Z(%d)", q)
	case 6:
		rm.SqrtX(q)
		sl.SqrtX(q)
		return fmt.Sprintf("SqrtX(%d)", q)
	case 7:
		rm.SqrtXDg(q)
		sl.SqrtXDg(q)
		return fmt.Sprintf("SqrtXDg(%d)", q)
	case 8:
		rm.SqrtY(q)
		sl.SqrtY(q)
		return fmt.Sprintf("SqrtY(%d)", q)
	case 9:
		rm.SqrtYDg(q)
		sl.SqrtYDg(q)
		return fmt.Sprintf("SqrtYDg(%d)", q)
	case 10:
		if n == 1 {
			rm.Z(q)
			sl.Z(q)
			return fmt.Sprintf("Z(%d)", q)
		}
		rm.ZZ(q, q2)
		sl.ZZ(q, q2)
		return fmt.Sprintf("ZZ(%d,%d)", q, q2)
	case 11:
		if n == 1 {
			rm.X(q)
			sl.X(q)
			return fmt.Sprintf("X(%d)", q)
		}
		rm.ZZ(q2, q)
		sl.ZZ(q2, q)
		return fmt.Sprintf("ZZ(%d,%d)", q2, q)
	case 12:
		if n == 1 {
			rm.S(q)
			sl.S(q)
			return fmt.Sprintf("S(%d)", q)
		}
		// XX coupling: ZZ conjugated by Y rotations on both operands.
		for _, st := range []State{rm, sl} {
			st.SqrtYDg(q)
			st.SqrtYDg(q2)
			st.ZZ(q, q2)
			st.SqrtY(q)
			st.SqrtY(q2)
		}
		return fmt.Sprintf("XX(%d,%d)", q, q2)
	case 13:
		if n == 1 {
			rm.SqrtX(q)
			sl.SqrtX(q)
			return fmt.Sprintf("SqrtX(%d)", q)
		}
		// YY coupling: ZZ conjugated by X rotations on both operands.
		for _, st := range []State{rm, sl} {
			st.SqrtX(q)
			st.SqrtX(q2)
			st.ZZ(q, q2)
			st.SqrtXDg(q)
			st.SqrtXDg(q2)
		}
		return fmt.Sprintf("YY(%d,%d)", q, q2)
	case 14: // injected Pauli frame (the noise subsystem's fault update)
		x, z := opRng.Intn(2) == 1, opRng.Intn(2) == 1
		rm.ApplyPauliError(q, x, z)
		sl.ApplyPauliError(q, x, z)
		return fmt.Sprintf("ApplyPauliError(%d,%v,%v)", q, x, z)
	case 15:
		rm.Reset(q)
		sl.Reset(q)
		return fmt.Sprintf("Reset(%d)", q)
	case 16:
		rec := *nextRec
		*nextRec++
		a := rm.MeasureZ(q, rec)
		b := sl.MeasureZ(q, rec)
		if a.Deterministic != b.Deterministic {
			return fmt.Sprintf("MeasureZ(%d)=DIVERGED det %v vs %v", q, a.Deterministic, b.Deterministic)
		}
		return fmt.Sprintf("MeasureZ(%d)", q)
	default: // multi-qubit Pauli measurement
		rec := *nextRec
		*nextRec++
		p := randomHermitianOn(opRng, n, active)
		a := rm.MeasurePauli(p, rec)
		b := sl.MeasurePauli(p, rec)
		if a.Deterministic != b.Deterministic {
			return fmt.Sprintf("MeasurePauli(%s)=DIVERGED", p)
		}
		return fmt.Sprintf("MeasurePauli(%s)", p)
	}
}

// pickQubit draws a qubit: any of n when active is nil, else one of active.
func pickQubit(rng *rand.Rand, n int, active []int) int {
	if active == nil {
		return rng.Intn(n)
	}
	return active[rng.Intn(len(active))]
}

// randomHermitian returns a random non-identity Hermitian Pauli string.
func randomHermitian(rng *rand.Rand, n int) *pauli.String {
	return randomHermitianOn(rng, n, nil)
}

// randomHermitianOn is randomHermitian supported on the qubits in active
// (every qubit when active is nil).
func randomHermitianOn(rng *rand.Rand, n int, active []int) *pauli.String {
	for {
		p := pauli.NewString(n)
		w := 1 + rng.Intn(3)
		for k := 0; k < w; k++ {
			p.SetKind(pickQubit(rng, n, active), pauli.Kind(1+rng.Intn(3)))
		}
		if !p.IsIdentity() {
			if rng.Intn(2) == 1 {
				p.Negate()
			}
			return p
		}
	}
}

// TestSlicedMatchesRowMajorDifferential drives random Clifford programs with
// injected Pauli frames through the row-major and bit-sliced engines in
// lockstep, asserting bit-identical measurement records and identical
// tableau states (row-for-row and in canonical form) after every operation.
func TestSlicedMatchesRowMajorDifferential(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 17, 64, 65, 70, 130}
	for _, n := range sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				seed := int64(1000*n + trial)
				rm := New(n, rand.New(rand.NewSource(seed)))
				sl := NewSliced(n, rand.New(rand.NewSource(seed)))
				opRng := rand.New(rand.NewSource(seed * 7919))
				nextRec := int32(0)
				steps := 40 + 4*n
				for s := 0; s < steps; s++ {
					step := drive(opRng, rm, sl, n, &nextRec)
					compareStates(t, fmt.Sprintf("trial %d step %d (%s)", trial, s, step), rm, sl)
				}
				if err := rm.CheckInvariants(); err != nil {
					t.Fatalf("row-major invariants: %v", err)
				}
				if err := sl.CheckInvariants(); err != nil {
					t.Fatalf("sliced invariants: %v", err)
				}
				// Expectation values agree on random operators.
				for k := 0; k < 20; k++ {
					p := randomHermitian(opRng, n)
					if a, b := rm.ExpectationValue(p), sl.ExpectationValue(p); a != b {
						t.Fatalf("trial %d: ExpectationValue(%s) = %v vs %v", trial, p, a, b)
					}
				}
			}
		})
	}
	t.Run("n=321-words-0-2-4", testSlicedWordGaps)
}

// testSlicedWordGaps runs the differential drive on n=321 (six 64-bit
// words) with only qubits of words 0, 2 and 4 active, then measures
// products of random subsets of the active stabilizer rows, some negated.
// Such a product is deterministic and its destabilizer mask selects exactly
// the chosen rows, so most masks have zero words between nonzero ones:
// detValue walks only the nonzero words, and both engines must read the
// product's known sign. Most products must see a gapped mask.
func testSlicedWordGaps(t *testing.T) {
	const n = 321
	active := []int{1, 40, 63, 130, 150, 191, 257, 300}
	gapped, probes := 0, 0
	for trial := 0; trial < 4; trial++ {
		seed := int64(7000 + trial)
		rm := New(n, rand.New(rand.NewSource(seed)))
		sl := NewSliced(n, rand.New(rand.NewSource(seed)))
		opRng := rand.New(rand.NewSource(seed * 7919))
		nextRec := int32(0)
		for s := 0; s < 400; s++ {
			step := driveOn(opRng, rm, sl, n, active, &nextRec)
			if s%50 == 0 {
				compareStates(t, fmt.Sprintf("trial %d step %d (%s)", trial, s, step), rm, sl)
			}
		}
		for k := 0; k < 40; k++ {
			_, stab := rowsOf(t, sl)
			p := pauli.NewString(n)
			for _, q := range active {
				if opRng.Intn(2) == 1 {
					p.Mul(stab[q])
				}
			}
			if p.IsIdentity() {
				continue
			}
			want := opRng.Intn(2) == 1
			if want {
				p.Negate()
			}
			probes++
			if gappedDetMask(sl, p) {
				gapped++
			}
			rec := nextRec
			nextRec++
			a, b := rm.MeasurePauli(p, rec), sl.MeasurePauli(p, rec)
			if !a.Deterministic || !b.Deterministic {
				t.Fatalf("trial %d: stabilizer product %s not deterministic (%v, %v)", trial, p, a.Deterministic, b.Deterministic)
			}
			if rm.Records()[rec] != want || sl.Records()[rec] != want {
				t.Fatalf("trial %d: stabilizer product %s reads %v (row-major) and %v (sliced), want %v",
					trial, p, rm.Records()[rec], sl.Records()[rec], want)
			}
		}
		compareStates(t, fmt.Sprintf("trial %d", trial), rm, sl)
	}
	if gapped < probes/2 {
		t.Fatalf("%d of %d stabilizer products had a mask with a zero word between nonzero ones, want at least half", gapped, probes)
	}
}

// gappedDetMask reports whether measuring p on sl is deterministic with a
// destabilizer mask whose nonzero words are not contiguous.
func gappedDetMask(sl *Sliced, p *pauli.String) bool {
	sq, sk, single := p.SingleQubit()
	m := make([]uint64, sl.wd)
	sl.antiMaskDS(m, true, p, sq, sk, single)
	if anyBit(m) {
		return false
	}
	sl.antiMaskDS(m, false, p, sq, sk, single)
	first, last, nonzero := -1, -1, 0
	for w, u := range m {
		if u != 0 {
			if first < 0 {
				first = w
			}
			last, nonzero = w, nonzero+1
		}
	}
	return nonzero > 0 && last-first+1 > nonzero
}

// TestSlicedResetAllReuse checks that ResetAll restores the exact initial
// state and that repeated shots on one Sliced reproduce a fresh engine's
// records bit-for-bit (the compile-once/run-many reuse contract).
func TestSlicedResetAllReuse(t *testing.T) {
	const n = 70
	run := func(sl *Sliced, seed int64) map[int32]bool {
		opRng := rand.New(rand.NewSource(99))
		sl.rng = rand.New(rand.NewSource(seed))
		nextRec := int32(0)
		rm := New(n, rand.New(rand.NewSource(seed))) // dummy partner
		for s := 0; s < 150; s++ {
			drive(opRng, rm, sl, n, &nextRec)
		}
		out := make(map[int32]bool, len(sl.Records()))
		for k, v := range sl.Records() {
			out[k] = v
		}
		return out
	}
	reused := NewSliced(n, nil2())
	var first map[int32]bool
	for shot := 0; shot < 3; shot++ {
		reused.ResetAll()
		got := run(reused, 42)
		if shot == 0 {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("shot %d: %d records, want %d", shot, len(got), len(first))
		}
		for k, v := range first {
			if got[k] != v {
				t.Fatalf("shot %d: record %d = %v, want %v", shot, k, got[k], v)
			}
		}
	}
	fresh := NewSliced(n, nil2())
	got := run(fresh, 42)
	for k, v := range first {
		if got[k] != v {
			t.Fatalf("fresh engine: record %d = %v, want %v", k, got[k], v)
		}
	}
}

// nil2 returns a placeholder RNG (replaced by run before use).
func nil2() *rand.Rand { return rand.New(rand.NewSource(1)) }
