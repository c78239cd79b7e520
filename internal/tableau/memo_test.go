package tableau

import (
	"fmt"
	"math/rand"
	"testing"

	"tiscc/internal/expr"
	"tiscc/internal/pauli"
)

// runMeasureMemo drives two symbolic tableaus through the operation sequence
// encoded in data and returns the number of memo hits. One tableau measures
// every operator with a full scan; the other skips a measurement when the
// operator equals one it proved deterministic at the current change count
// (Changes), as the compiler's syndrome rounds do. Every hit must be a
// measurement the full scan also finds deterministic, and the two tableaus
// must end identical.
//
// The first byte picks the qubit count (up to 70, so rows span two words),
// the second seeds a pool of measured operators (single- and multi-qubit),
// and every following triple of bytes is one operation: an opcode and two
// operands.
func runMeasureMemo(t *testing.T, data []byte) int {
	t.Helper()
	if len(data) < 2 {
		return 0
	}
	n := int(data[0])%70 + 1
	rng := rand.New(rand.NewSource(int64(data[1])))
	pool := make([]*pauli.String, 5)
	for i := range pool {
		pool[i] = randomHermitian(rng, n)
	}
	pool[0] = pauli.Single(n, rng.Intn(n), pauli.Z)
	full, memo := New(n, nil), New(n, nil)
	full.AddObservable(pool[1])
	memo.AddObservable(pool[1])
	type proof struct {
		at uint64
		op *pauli.String
	}
	proved := make([]proof, len(pool))
	hits := 0
	var rec int32
	for i := 2; i+2 < len(data); i += 3 {
		op, a, b := data[i]%21, int(data[i+1])%n, int(data[i+2])
		two := func(f func(tb *T, a, b int)) {
			c := b % n
			if c == a {
				c = (a + 1) % n
			}
			if c != a {
				f(full, a, c)
				f(memo, a, c)
			}
		}
		switch op {
		case 0:
			full.H(a)
			memo.H(a)
		case 1:
			full.S(a)
			memo.S(a)
		case 2:
			full.Sdg(a)
			memo.Sdg(a)
		case 3:
			full.SqrtX(a)
			memo.SqrtX(a)
		case 4:
			full.SqrtXDg(a)
			memo.SqrtXDg(a)
		case 5:
			full.SqrtY(a)
			memo.SqrtY(a)
		case 6:
			full.SqrtYDg(a)
			memo.SqrtYDg(a)
		case 7:
			two((*T).CX)
		case 8:
			two((*T).ZZ)
		case 9:
			two((*T).Swap)
		case 10:
			full.X(a)
			memo.X(a)
		case 11:
			full.Y(a)
			memo.Y(a)
		case 12:
			full.Z(a)
			memo.Z(a)
		case 13:
			full.Reset(a)
			memo.Reset(a)
		case 14:
			e := expr.FromID(int32(b))
			full.ConditionalPauli(pool[b%len(pool)], e)
			memo.ConditionalPauli(pool[b%len(pool)], e)
		case 15:
			full.ApplyPauliError(a, b&1 == 1, b&2 == 2)
			memo.ApplyPauliError(a, b&1 == 1, b&2 == 2)
		case 16:
			full.ResetAll()
			memo.ResetAll()
		default:
			k := b % len(pool)
			p := pool[k]
			det := full.Measure(p, rec)
			if pr := &proved[k]; pr.op != nil && pr.at == memo.Changes() && pr.op.Equal(p) {
				hits++
				if !det {
					t.Fatalf("op %d: memo hit on %v, but the full scan finds a random outcome", i, p)
				}
				if ok, _ := memo.Expectation(p); !ok {
					t.Fatalf("op %d: memo hit on %v, but it anticommutes with a stabilizer", i, p)
				}
			} else if memo.Measure(p, rec) {
				*pr = proof{memo.Changes(), p}
			}
			rec++
		}
	}
	if err := sameTableau(full, memo); err != nil {
		t.Fatal(err)
	}
	return hits
}

// sameTableau reports how a and b differ, if they do: every row's Pauli
// content, i-exponent and symbolic sign, the virtual-id counter and the
// change counter.
func sameTableau(a, b *T) error {
	if a.nextVirtual != b.nextVirtual || a.changes != b.changes {
		return fmt.Errorf("counters differ: virtual %d vs %d, changes %d vs %d", a.nextVirtual, b.nextVirtual, a.changes, b.changes)
	}
	ga, gb := a.groups(), b.groups()
	for g := range ga {
		if len(ga[g]) != len(gb[g]) {
			return fmt.Errorf("row group %d: %d vs %d rows", g, len(ga[g]), len(gb[g]))
		}
		for i := range ga[g] {
			ra, rb := &ga[g][i], &gb[g][i]
			if !ra.X.Equal(rb.X) || !ra.Z.Equal(rb.Z) || ra.K != rb.K || !ra.Sym.Equal(rb.Sym) {
				return fmt.Errorf("row group %d, row %d differs: %v %v vs %v %v", g, i, ra.Pauli(a.n), ra.Sym, rb.Pauli(b.n), rb.Sym)
			}
		}
	}
	return nil
}

// memoCorpus returns operation sequences that exercise the memo: repeated
// measurements of a small operator pool between sign-only updates (which
// keep proofs) and content-moving gates, resets and collapses (which
// retire them).
func memoCorpus() [][]byte {
	corpus := [][]byte{
		{3, 1, 17, 0, 0, 17, 0, 0, 17, 0, 0, 10, 1, 0, 17, 0, 0, 0, 1, 0, 17, 0, 0, 17, 0, 0},
		{9, 7, 17, 0, 1, 17, 0, 2, 17, 0, 1, 17, 0, 2, 14, 0, 3, 17, 0, 1, 7, 2, 5, 17, 0, 1, 17, 0, 1},
	}
	rng := rand.New(rand.NewSource(11))
	for range 8 {
		for _, n := range []byte{1, 2, 3, 4, 40, 69} {
			seq := []byte{n, byte(rng.Intn(256))}
			for range 300 {
				op := byte(17 + rng.Intn(4)) // half measurements of the pool
				if rng.Intn(2) == 0 {
					op = byte(rng.Intn(17))
				}
				seq = append(seq, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			corpus = append(corpus, seq)
		}
	}
	return corpus
}

// TestMeasureMemo runs the memo differential on its corpus and checks that
// the memo is exercised: every sequence hits.
func TestMeasureMemo(t *testing.T) {
	for i, data := range memoCorpus() {
		if hits := runMeasureMemo(t, data); hits == 0 {
			t.Errorf("corpus sequence %d: no memo hit", i)
		}
	}
}

// FuzzMeasureMemo is the memo differential (runMeasureMemo) on arbitrary
// operation sequences.
func FuzzMeasureMemo(f *testing.F) {
	for _, data := range memoCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3002 {
			return
		}
		runMeasureMemo(t, data)
	})
}
