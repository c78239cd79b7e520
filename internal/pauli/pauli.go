// Package pauli implements bit-packed Pauli strings with exact phase
// arithmetic. A Pauli string over n qubits is represented in the symplectic
// form i^phase * X^x * Z^z where x and z are length-n bit vectors and phase
// is an exponent of i modulo 4. This is the representation used throughout
// the compiler (parity-check matrices, logical operators) and the stabilizer
// simulator.
package pauli

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bits is a little-endian packed bit vector.
type Bits []uint64

// NewBits returns an all-zero bit vector able to hold n bits.
func NewBits(n int) Bits {
	return make(Bits, (n+63)/64)
}

// Get reports bit i.
func (b Bits) Get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 == 1 }

// Set sets bit i to v.
func (b Bits) Set(i int, v bool) {
	if v {
		b[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Flip toggles bit i.
func (b Bits) Flip(i int) { b[i>>6] ^= 1 << (uint(i) & 63) }

// Xor xors other into b. The vectors must have equal word length.
func (b Bits) Xor(other Bits) {
	for i := range b {
		b[i] ^= other[i]
	}
}

// And returns the number of common set bits of b and other.
func (b Bits) AndCount(other Bits) int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(b[i] & other[i])
	}
	return n
}

// IsZero reports whether every bit is clear.
func (b Bits) IsZero() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of b.
func (b Bits) Clone() Bits {
	c := make(Bits, len(b))
	copy(c, b)
	return c
}

// Equal reports whether b and other hold identical bits.
func (b Bits) Equal(other Bits) bool {
	if len(b) != len(other) {
		return false
	}
	for i := range b {
		if b[i] != other[i] {
			return false
		}
	}
	return true
}

// String represents a single-qubit Pauli kind.
type Kind uint8

// Single-qubit Pauli kinds.
const (
	I Kind = iota
	X
	Z
	Y
)

func (k Kind) String() string {
	switch k {
	case I:
		return "I"
	case X:
		return "X"
	case Z:
		return "Z"
	case Y:
		return "Y"
	}
	return "?"
}

// String is an n-qubit Pauli operator i^Phase * X^xbits * Z^zbits.
// The zero value is unusable; construct with NewString.
type String struct {
	N     int
	XBits Bits
	ZBits Bits
	Phase uint8 // exponent of i, modulo 4
}

// NewString returns the identity Pauli string over n qubits.
func NewString(n int) *String {
	return &String{N: n, XBits: NewBits(n), ZBits: NewBits(n)}
}

// Parse builds a Pauli string from a text form like "XIZY" or "+XIZY",
// "-XIZY", "iXIZY", "-iXIZY".
func Parse(s string) (*String, error) {
	phase := uint8(0)
	body := s
	switch {
	case strings.HasPrefix(s, "-i"):
		phase, body = 3, s[2:]
	case strings.HasPrefix(s, "+i"):
		phase, body = 1, s[2:]
	case strings.HasPrefix(s, "i"):
		phase, body = 1, s[1:]
	case strings.HasPrefix(s, "-"):
		phase, body = 2, s[1:]
	case strings.HasPrefix(s, "+"):
		body = s[1:]
	}
	p := NewString(len(body))
	for i, c := range body {
		switch c {
		case 'I':
		case 'X':
			p.SetKind(i, X)
		case 'Y':
			p.SetKind(i, Y)
		case 'Z':
			p.SetKind(i, Z)
		default:
			return nil, fmt.Errorf("pauli: invalid character %q in %q", c, s)
		}
	}
	p.Phase = (p.Phase + phase) % 4
	return p, nil
}

// Kind returns the Pauli kind acting on qubit q (ignoring phase).
func (p *String) Kind(q int) Kind {
	x, z := p.XBits.Get(q), p.ZBits.Get(q)
	switch {
	case x && z:
		return Y
	case x:
		return X
	case z:
		return Z
	}
	return I
}

// SetKind replaces the Pauli acting on qubit q, adjusting the global phase
// so that the string remains the tensor product of literal Paulis with the
// stated overall i^Phase.
func (p *String) SetKind(q int, k Kind) {
	// Remove the existing factor's phase contribution.
	if p.Kind(q) == Y {
		p.Phase = (p.Phase + 3) % 4 // divide by i
	}
	p.XBits.Set(q, k == X || k == Y)
	p.ZBits.Set(q, k == Z || k == Y)
	if k == Y {
		p.Phase = (p.Phase + 1) % 4 // Y = i·X·Z
	}
}

// Clone returns a deep copy.
func (p *String) Clone() *String {
	return &String{N: p.N, XBits: p.XBits.Clone(), ZBits: p.ZBits.Clone(), Phase: p.Phase}
}

// Weight returns the number of qubits on which p acts non-trivially.
func (p *String) Weight() int {
	w := 0
	for i := range p.XBits {
		w += bits.OnesCount64(p.XBits[i] | p.ZBits[i])
	}
	return w
}

// SingleQubit reports whether p acts non-trivially on exactly one qubit,
// returning that qubit and its Pauli kind. Weight-one operators admit O(1)
// anticommutation tests, which the stabilizer simulator's measurement and
// reset hot paths exploit.
func (p *String) SingleQubit() (int, Kind, bool) {
	q := -1
	for w := range p.XBits {
		m := p.XBits[w] | p.ZBits[w]
		if m == 0 {
			continue
		}
		if q >= 0 || m&(m-1) != 0 {
			return 0, I, false
		}
		q = w*64 + bits.TrailingZeros64(m)
	}
	if q < 0 {
		return 0, I, false
	}
	return q, p.Kind(q), true
}

// IsIdentity reports whether p is the identity operator up to phase.
func (p *String) IsIdentity() bool { return p.XBits.IsZero() && p.ZBits.IsZero() }

// Commutes reports whether p and q commute as operators.
func (p *String) Commutes(q *String) bool {
	// Symplectic inner product: sum over qubits of x_p·z_q + z_p·x_q mod 2.
	c := p.XBits.AndCount(q.ZBits) + p.ZBits.AndCount(q.XBits)
	return c%2 == 0
}

// Mul sets p to the operator product p·q (in that order) and returns p.
// Phase is tracked exactly.
func (p *String) Mul(q *String) *String {
	if p.N != q.N {
		panic("pauli: length mismatch in Mul")
	}
	// (i^a X^x1 Z^z1)(i^b X^x2 Z^z2) = i^(a+b) (-1)^(z1·x2) X^(x1^x2) Z^(z1^z2)
	sign := p.ZBits.AndCount(q.XBits) % 2
	p.Phase = (p.Phase + q.Phase + uint8(sign)*2) % 4
	p.XBits.Xor(q.XBits)
	p.ZBits.Xor(q.ZBits)
	return p
}

// Product returns a·b without modifying its arguments.
func Product(a, b *String) *String { return a.Clone().Mul(b) }

// Hermitian reports whether p is Hermitian (phase 0 or 2 combined with the
// i-factors of its Y content makes p² = +I; equivalently, i^Phase real after
// accounting for X/Z ordering).
func (p *String) Hermitian() bool {
	// p = i^Phase X^x Z^z. p² = i^{2·Phase} (-1)^{x·z} I.
	sq := (2*int(p.Phase) + 2*p.XBits.AndCount(p.ZBits)) % 4
	return sq == 0
}

// Negate multiplies p by -1.
func (p *String) Negate() { p.Phase = (p.Phase + 2) % 4 }

// Sign returns the real sign of a Hermitian Pauli string written in the
// canonical form (+1 or -1) and panics for non-Hermitian phases.
func (p *String) Sign() int {
	// Literal form: X^x Z^z contributes (-i)^{x·z} per Y qubit, so the
	// visible prefix is i^{Phase - |x∧z|}.
	ph := (int(p.Phase) + 3*p.XBits.AndCount(p.ZBits)) % 4
	switch ph {
	case 0:
		return 1
	case 2:
		return -1
	}
	panic("pauli: Sign of non-Hermitian string")
}

// String renders p as a sign prefix plus one letter per qubit.
func (p *String) String() string {
	var sb strings.Builder
	ph := (int(p.Phase) + 3*p.XBits.AndCount(p.ZBits)) % 4
	switch ph {
	case 0:
		sb.WriteByte('+')
	case 1:
		sb.WriteString("+i")
	case 2:
		sb.WriteByte('-')
	case 3:
		sb.WriteString("-i")
	}
	for q := 0; q < p.N; q++ {
		sb.WriteString(p.Kind(q).String())
	}
	return sb.String()
}

// Equal reports exact equality including phase.
func (p *String) Equal(q *String) bool {
	return p.N == q.N && p.Phase == q.Phase && p.XBits.Equal(q.XBits) && p.ZBits.Equal(q.ZBits)
}

// EqualUpToPhase reports equality of the operator content ignoring phase.
func (p *String) EqualUpToPhase(q *String) bool {
	return p.N == q.N && p.XBits.Equal(q.XBits) && p.ZBits.Equal(q.ZBits)
}

// Single returns the weight-one Pauli string k acting on qubit q of n.
func Single(n, q int, k Kind) *String {
	p := NewString(n)
	p.SetKind(q, k)
	return p
}
