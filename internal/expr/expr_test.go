package expr

import (
	"math/rand"
	"testing"
)

func TestXorBasics(t *testing.T) {
	a := FromID(3)
	b := FromID(5)
	ab := a.Xor(b)
	if len(ab.IDs) != 2 || ab.IDs[0] != 3 || ab.IDs[1] != 5 {
		t.Fatalf("a⊕b = %v", ab)
	}
	if !a.Xor(a).Equal(Zero()) {
		t.Fatal("a⊕a should be constant 0")
	}
	c := One()
	if got := c.Xor(c); !got.Equal(Zero()) {
		t.Fatal("1⊕1 should be 0")
	}
}

func TestXorConst(t *testing.T) {
	e := FromID(2).XorConst(true)
	if !e.Const {
		t.Fatal("const not set")
	}
	if e.XorConst(true).Const {
		t.Fatal("const not cleared")
	}
}

func TestEval(t *testing.T) {
	recs := map[int32]bool{0: true, 1: false, 2: true}
	e := FromID(0).Xor(FromID(2)) // true ⊕ true = false
	if e.Eval(recs) {
		t.Fatal("eval wrong")
	}
	if !e.XorConst(true).Eval(recs) {
		t.Fatal("eval with const wrong")
	}
}

func TestEvalMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing record")
		}
	}()
	FromID(99).Eval(map[int32]bool{})
}

func TestHasVirtual(t *testing.T) {
	if FromID(3).HasVirtual() {
		t.Fatal("positive id flagged virtual")
	}
	if !FromID(-1).HasVirtual() {
		t.Fatal("negative id not flagged")
	}
}

// TestNormalize checks the normal form Xor keeps: ids sorted, each present
// iff it occurs an odd number of times.
func TestNormalize(t *testing.T) {
	e := Zero()
	for _, id := range []int32{5, 3, 5, 5, 3} {
		e = e.Xor(FromID(id))
	}
	if len(e.IDs) != 1 || e.IDs[0] != 5 {
		t.Fatalf("normalized = %v", e.IDs)
	}
}

func TestString(t *testing.T) {
	if Zero().String() != "0" || One().String() != "1" {
		t.Fatal("const strings wrong")
	}
	e := FromID(3).Xor(FromID(17)).XorConst(true)
	if e.String() != "m3⊕m17⊕1" {
		t.Fatalf("string = %q", e.String())
	}
}

// Property: Xor is associative and commutative and Eval is a homomorphism.
func TestXorAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	randExpr := func() Expr {
		e := Expr{Const: r.Intn(2) == 1}
		for i := 0; i < r.Intn(6); i++ {
			e = e.Xor(FromID(int32(r.Intn(10))))
		}
		return e
	}
	recs := map[int32]bool{}
	for i := int32(0); i < 10; i++ {
		recs[i] = r.Intn(2) == 1
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := randExpr(), randExpr(), randExpr()
		l := a.Xor(b).Xor(c)
		rr := a.Xor(b.Xor(c))
		if !l.Equal(rr) {
			t.Fatalf("associativity: %v vs %v", l, rr)
		}
		if !a.Xor(b).Equal(b.Xor(a)) {
			t.Fatal("commutativity")
		}
		if a.Xor(b).Eval(recs) != (a.Eval(recs) != b.Eval(recs)) {
			t.Fatal("Eval not a homomorphism")
		}
	}
}
