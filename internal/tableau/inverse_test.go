package tableau

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"tiscc/internal/pauli"
)

// The inverse tableau is checked against the row-major T, its oracle: both
// implement State, so random native-gate streams driven through both in
// lockstep must give identical records and Deterministic flags, and equal
// states. The two store different rows (T the stabilizers, Inverse their
// Heisenberg preimages), so states are compared through expectation values,
// never row by row: every stabilizer T holds, sign included, must read +1
// on the inverse, and n independent stabilizers fix the state.

// stabilizers returns T's stabilizer generators with their concrete signs
// folded into the phases.
func stabilizers(rm *T) []*pauli.String {
	stab := rm.StabilizerStrings()
	for i := range stab {
		if rm.StabilizerSym(i).Eval(rm.Records()) {
			stab[i].Negate()
		}
	}
	return stab
}

// compareStates fails t unless both states hold the same record table and
// the same stabilizer state.
func compareStates(t *testing.T, step string, rm *T, iv *Inverse) {
	t.Helper()
	if !maps.Equal(rm.Records(), iv.Records()) {
		t.Fatalf("%s: record tables differ:\n  row-major %v\n  inverse   %v", step, rm.Records(), iv.Records())
	}
	for i, s := range stabilizers(rm) {
		if got := iv.ExpectationValue(s); got != 1 {
			t.Fatalf("%s: row-major stabilizer %d (%s) reads %v on the inverse, want 1", step, i, s, got)
		}
	}
}

// singleGates is the native single-qubit gate set, as State methods.
var singleGates = []struct {
	name  string
	apply func(State, int)
}{
	{"X", State.X}, {"Y", State.Y}, {"Z", State.Z}, {"S", State.S}, {"Sdg", State.Sdg},
	{"SqrtX", State.SqrtX}, {"SqrtXDg", State.SqrtXDg}, {"SqrtY", State.SqrtY}, {"SqrtYDg", State.SqrtYDg},
}

// drive applies one random operation identically to both states: a native
// gate (singly or as a short composite, which together generate the full
// Clifford group), a branch of the quasi-probability T channel, a Pauli
// fault, a reset or a Z measurement, on the qubits in active (every qubit
// when active is nil; otherwise it lists at least two). A measurement must
// be deterministic on both states or random on both.
func drive(t *testing.T, opRng *rand.Rand, rm *T, iv *Inverse, n int, active []int, nextRec *int32) string {
	t.Helper()
	q := pickQubit(opRng, n, active)
	q2 := pickQubit(opRng, n, active)
	for n > 1 && q2 == q {
		q2 = pickQubit(opRng, n, active)
	}
	both := func(f func(State)) { f(rm); f(iv) }
	switch op := opRng.Intn(18); {
	case op < len(singleGates):
		g := singleGates[op]
		both(func(s State) { g.apply(s, q) })
		return fmt.Sprintf("%s(%d)", g.name, q)
	case op == 9: // Hadamard up to global phase
		both(func(s State) { s.SqrtY(q); s.X(q) })
		return fmt.Sprintf("SqrtY+X(%d)", q)
	case op <= 12 && n == 1:
		both(func(s State) { s.SqrtX(q) })
		return fmt.Sprintf("SqrtX(%d)", q)
	case op == 10:
		both(func(s State) { s.ZZ(q, q2) })
		return fmt.Sprintf("ZZ(%d,%d)", q, q2)
	case op == 11: // XX coupling: ZZ conjugated by Y rotations
		both(func(s State) {
			s.SqrtYDg(q)
			s.SqrtYDg(q2)
			s.ZZ(q, q2)
			s.SqrtY(q)
			s.SqrtY(q2)
		})
		return fmt.Sprintf("XX(%d,%d)", q, q2)
	case op == 12: // YY coupling: ZZ conjugated by X rotations
		both(func(s State) {
			s.SqrtX(q)
			s.SqrtX(q2)
			s.ZZ(q, q2)
			s.SqrtXDg(q)
			s.SqrtXDg(q2)
		})
		return fmt.Sprintf("YY(%d,%d)", q, q2)
	case op == 13: // one branch of T (or T†): identity, Z, or S (S†)
		switch b := opRng.Intn(4); b {
		case 0:
			return fmt.Sprintf("T-identity(%d)", q)
		case 1:
			both(func(s State) { s.Z(q) })
			return fmt.Sprintf("T-Z(%d)", q)
		case 2:
			both(func(s State) { s.S(q) })
			return fmt.Sprintf("T-S(%d)", q)
		default:
			both(func(s State) { s.Sdg(q) })
			return fmt.Sprintf("Tdg-Sdg(%d)", q)
		}
	case op == 14: // injected Pauli frame (the noise subsystem's fault update)
		x, z := opRng.Intn(2) == 1, opRng.Intn(2) == 1
		both(func(s State) { s.ApplyPauliError(q, x, z) })
		return fmt.Sprintf("ApplyPauliError(%d,%v,%v)", q, x, z)
	case op == 15:
		both(func(s State) { s.Reset(q) })
		return fmt.Sprintf("Reset(%d)", q)
	default:
		rec := *nextRec
		*nextRec++
		a, b := rm.MeasureZ(q, rec), iv.MeasureZ(q, rec)
		if a.Deterministic != b.Deterministic {
			t.Fatalf("MeasureZ(%d): deterministic %v (row-major) vs %v (inverse)", q, a.Deterministic, b.Deterministic)
		}
		return fmt.Sprintf("MeasureZ(%d)", q)
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
	for {
		p := pauli.NewString(n)
		w := 1 + rng.Intn(3)
		for k := 0; k < w; k++ {
			p.SetKind(rng.Intn(n), pauli.Kind(1+rng.Intn(3)))
		}
		if !p.IsIdentity() {
			if rng.Intn(2) == 1 {
				p.Negate()
			}
			return p
		}
	}
}

// checkExpectations compares both states' expectation values on random
// Paulis (mostly 0) and on products of random subsets of the row-major
// stabilizers taken from rows (every row when rows is nil), some negated,
// whose value is a known ±1.
func checkExpectations(t *testing.T, step string, opRng *rand.Rand, rm *T, iv *Inverse, rows []int) {
	t.Helper()
	n := rm.N()
	for k := 0; k < 20; k++ {
		p := randomHermitian(opRng, n)
		if a, b := rm.ExpectationValue(p), iv.ExpectationValue(p); a != b {
			t.Fatalf("%s: ExpectationValue(%s) = %v (row-major) vs %v (inverse)", step, p, a, b)
		}
	}
	stab := stabilizers(rm)
	if rows == nil {
		rows = make([]int, n)
		for i := range rows {
			rows[i] = i
		}
	}
	for k := 0; k < 20; k++ {
		p := pauli.NewString(n)
		for _, i := range rows {
			if opRng.Intn(2) == 1 {
				p.Mul(stab[i])
			}
		}
		want := 1.0
		if opRng.Intn(2) == 1 {
			p.Negate()
			want = -1
		}
		if a, b := rm.ExpectationValue(p), iv.ExpectationValue(p); a != want || b != want {
			t.Fatalf("%s: stabilizer product %s reads %v (row-major) and %v (inverse), want %v", step, p, a, b, want)
		}
	}
}

// TestSlicedMatchesRowMajorDifferential drives random native-gate streams
// with T branches, Pauli faults, resets and measurements through the
// row-major T and the inverse tableau in lockstep, asserting identical
// records and Deterministic flags and equal states after every operation,
// and equal expectation values at the end of each trial. (The name is the
// test's id from before the inverse tableau replaced the bit-sliced one.)
func TestSlicedMatchesRowMajorDifferential(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 17, 64, 65, 70, 130}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				seed := int64(1000*n + trial)
				rm := New(n, rand.New(rand.NewSource(seed)))
				iv := NewInverse(n, rand.New(rand.NewSource(seed)))
				opRng := rand.New(rand.NewSource(seed * 7919))
				nextRec := int32(0)
				steps := 40 + 4*n
				for s := 0; s < steps; s++ {
					step := drive(t, opRng, rm, iv, n, nil, &nextRec)
					compareStates(t, fmt.Sprintf("trial %d step %d (%s)", trial, s, step), rm, iv)
				}
				if err := rm.CheckInvariants(); err != nil {
					t.Fatalf("row-major invariants: %v", err)
				}
				if err := iv.CheckInvariants(); err != nil {
					t.Fatalf("inverse invariants: %v", err)
				}
				checkExpectations(t, fmt.Sprintf("trial %d", trial), opRng, rm, iv, nil)
			}
		})
	}
	t.Run("n=321-words-0-2-4", testInverseWordGaps)
}

// testInverseWordGaps runs the differential drive on n=321 (six 64-bit
// words) with only qubits of words 0, 2 and 4 active, so rows hold zero
// words between nonzero ones: collapses with CX targets in several words,
// and expectation products of the active stabilizer rows, must skip the
// gaps without losing a sign.
func testInverseWordGaps(t *testing.T) {
	const n = 321
	active := []int{1, 40, 63, 130, 150, 191, 257, 300}
	for trial := 0; trial < 4; trial++ {
		seed := int64(7000 + trial)
		rm := New(n, rand.New(rand.NewSource(seed)))
		iv := NewInverse(n, rand.New(rand.NewSource(seed)))
		opRng := rand.New(rand.NewSource(seed * 7919))
		nextRec := int32(0)
		for s := 0; s < 400; s++ {
			step := drive(t, opRng, rm, iv, n, active, &nextRec)
			if s%50 == 0 {
				compareStates(t, fmt.Sprintf("trial %d step %d (%s)", trial, s, step), rm, iv)
			}
		}
		compareStates(t, fmt.Sprintf("trial %d", trial), rm, iv)
		if err := iv.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: inverse invariants: %v", trial, err)
		}
		checkExpectations(t, fmt.Sprintf("trial %d", trial), opRng, rm, iv, active)
	}
}

// TestSlicedResetAllReuse checks that ResetAll restores the exact initial
// inverse tableau and that repeated shots on one Inverse reproduce a fresh
// one's records bit for bit (the compile-once/run-many reuse contract).
// (The name is the test's id from before the inverse tableau replaced the
// bit-sliced one.)
func TestSlicedResetAllReuse(t *testing.T) {
	const n = 70
	run := func(iv *Inverse, seed int64) map[int32]bool {
		opRng := rand.New(rand.NewSource(99))
		iv.rng = rand.New(rand.NewSource(seed))
		rm := New(n, rand.New(rand.NewSource(seed)))
		nextRec := int32(0)
		for s := 0; s < 150; s++ {
			drive(t, opRng, rm, iv, n, nil, &nextRec)
		}
		return maps.Clone(iv.Records())
	}
	fresh := NewInverse(n, rand.New(rand.NewSource(1)))
	want := run(NewInverse(n, rand.New(rand.NewSource(1))), 42)
	reused := NewInverse(n, rand.New(rand.NewSource(1)))
	for shot := 0; shot < 3; shot++ {
		reused.ResetAll()
		if !slices.Equal(reused.rows, fresh.rows) || !slices.Equal(reused.sign, fresh.sign) ||
			len(reused.records) != 0 || reused.nextVirtual != fresh.nextVirtual {
			t.Fatalf("shot %d: ResetAll left a state other than |0…0⟩", shot)
		}
		if got := run(reused, 42); !maps.Equal(got, want) {
			t.Fatalf("shot %d: records %v, want %v", shot, got, want)
		}
	}
}
