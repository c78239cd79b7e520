package pauli

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindsRoundTrip(t *testing.T) {
	kinds := []Kind{I, X, Y, Z, Y, X}
	p := NewString(len(kinds))
	for i, k := range kinds {
		p.SetKind(i, k)
	}
	for i, k := range kinds {
		if p.Kind(i) != k {
			t.Fatalf("qubit %d: got %v want %v", i, p.Kind(i), k)
		}
	}
	if p.Weight() != 5 {
		t.Fatalf("weight = %d, want 5", p.Weight())
	}
}

func TestParseAndString(t *testing.T) {
	cases := []string{"+XIZY", "-XIZY", "+iXY", "-iZZ", "+IIII", "+Y"}
	for _, c := range cases {
		p, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if got := p.String(); got != c {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
	if _, err := Parse("XQ"); err == nil {
		t.Error("expected error for invalid character")
	}
}

func TestSingleQubitProducts(t *testing.T) {
	// Multiplication table of the single-qubit Pauli group: X·Z = -iY, etc.
	mustParse := func(s string) *String {
		p, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct{ a, b, want string }{
		{"+X", "+X", "+I"},
		{"+Z", "+Z", "+I"},
		{"+Y", "+Y", "+I"},
		{"+X", "+Z", "-iY"},
		{"+Z", "+X", "+iY"},
		{"+X", "+Y", "+iZ"},
		{"+Y", "+X", "-iZ"},
		{"+Y", "+Z", "+iX"},
		{"+Z", "+Y", "-iX"},
	}
	for _, c := range cases {
		got := Product(mustParse(c.a), mustParse(c.b))
		if got.String() != c.want {
			t.Errorf("%s * %s = %s, want %s", c.a, c.b, got.String(), c.want)
		}
	}
}

func TestCommutation(t *testing.T) {
	x := Single(3, 0, X)
	z := Single(3, 0, Z)
	z2 := Single(3, 1, Z)
	if x.Commutes(z) {
		t.Error("X0 and Z0 should anticommute")
	}
	if !x.Commutes(z2) {
		t.Error("X0 and Z1 should commute")
	}
	xx, _ := Parse("XX")
	zz, _ := Parse("ZZ")
	if !xx.Commutes(zz) {
		t.Error("XX and ZZ should commute")
	}
}

func TestHermitian(t *testing.T) {
	for _, s := range []string{"+X", "-X", "+Y", "-Y", "+XYZ", "-ZZ"} {
		p, _ := Parse(s)
		if !p.Hermitian() {
			t.Errorf("%s should be Hermitian", s)
		}
	}
	p, _ := Parse("+iX")
	if p.Hermitian() {
		t.Error("+iX should not be Hermitian")
	}
}

func TestSign(t *testing.T) {
	p, _ := Parse("-XYZ")
	if p.Sign() != -1 {
		t.Errorf("sign of -XYZ = %d", p.Sign())
	}
	q, _ := Parse("+YY")
	if q.Sign() != 1 {
		t.Errorf("sign of +YY = %d", q.Sign())
	}
}

func randomString(r *rand.Rand, n int) *String {
	p := NewString(n)
	for q := 0; q < n; q++ {
		p.SetKind(q, Kind(r.Intn(4)))
	}
	p.Phase = (p.Phase + uint8(r.Intn(4))) % 4
	return p
}

// Property: multiplication is associative.
func TestMulAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(8)
		a, b, c := randomString(r, n), randomString(r, n), randomString(r, n)
		left := Product(Product(a, b), c)
		right := Product(a, Product(b, c))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: p·p = ±I for any Pauli string, and the sign follows Hermiticity.
func TestSquareIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(10)
		p := randomString(r, n)
		sq := Product(p, p)
		if !sq.IsIdentity() {
			t.Fatalf("p²=%s has non-identity content", sq)
		}
		if p.Hermitian() && sq.Sign() != 1 {
			t.Fatalf("Hermitian p squared to %s", sq)
		}
	}
}

// Property: commutation matches the sign relation a·b = ±b·a.
func TestCommuteMatchesProductOrder(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(8)
		a, b := randomString(r, n), randomString(r, n)
		ab := Product(a, b)
		ba := Product(b, a)
		if a.Commutes(b) {
			if !ab.Equal(ba) {
				t.Fatalf("commuting pair with ab≠ba: a=%s b=%s", a, b)
			}
		} else {
			ba.Negate()
			if !ab.Equal(ba) {
				t.Fatalf("anticommuting pair with ab≠-ba: a=%s b=%s", a, b)
			}
		}
	}
}

func TestBitsBasics(t *testing.T) {
	b := NewBits(130)
	b.Set(0, true)
	b.Set(64, true)
	b.Set(129, true)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("bit get/set broken")
	}
	if b.AndCount(b) != 3 {
		t.Fatalf("AndCount(self) = %d", b.AndCount(b))
	}
	b.Flip(129)
	if b.Get(129) || b.AndCount(b) != 2 {
		t.Fatal("Flip broken")
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Fatal("Clone/Equal broken")
	}
	c.Xor(b)
	if !c.IsZero() {
		t.Fatal("Xor broken")
	}
}
