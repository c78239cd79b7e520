// Package expr implements XOR expressions over measurement-record indices.
// The compiler attaches an Expr to every logical-operator value and derived
// outcome: evaluating the Expr against the record table produced by a
// simulator (or real hardware) yields the bit value of that operator. This
// is the machine-readable form of the paper's "workflows for translating
// measurement outcomes into values of logical operators" (TISCC Sec 4.5).
package expr

import (
	"fmt"
	"strings"
)

// Expr is a GF(2) affine form: Const ⊕ records[id0] ⊕ records[id1] ⊕ …
// The id list is kept sorted and duplicate-free. The zero value is the
// constant 0 (i.e. the Pauli sign +1).
type Expr struct {
	IDs   []int32
	Const bool
}

// Zero is the constant-false (sign +1) expression.
func Zero() Expr { return Expr{} }

// One is the constant-true (sign −1) expression.
func One() Expr { return Expr{Const: true} }

// FromConst returns a constant expression.
func FromConst(b bool) Expr { return Expr{Const: b} }

// FromID returns the expression consisting of a single record reference.
func FromID(id int32) Expr { return Expr{IDs: []int32{id}} }

// Xor returns e ⊕ o.
func (e Expr) Xor(o Expr) Expr {
	out := Expr{Const: e.Const != o.Const}
	if len(o.IDs) == 0 {
		out.IDs = append([]int32(nil), e.IDs...)
		return out
	}
	if len(e.IDs) == 0 {
		out.IDs = append([]int32(nil), o.IDs...)
		return out
	}
	// Merge sorted lists, dropping pairs.
	out.IDs = make([]int32, 0, len(e.IDs)+len(o.IDs))
	i, j := 0, 0
	for i < len(e.IDs) && j < len(o.IDs) {
		switch {
		case e.IDs[i] < o.IDs[j]:
			out.IDs = append(out.IDs, e.IDs[i])
			i++
		case e.IDs[i] > o.IDs[j]:
			out.IDs = append(out.IDs, o.IDs[j])
			j++
		default:
			i++
			j++
		}
	}
	out.IDs = append(out.IDs, e.IDs[i:]...)
	out.IDs = append(out.IDs, o.IDs[j:]...)
	return out
}

// XorConst returns e with its constant term flipped when b is true.
func (e Expr) XorConst(b bool) Expr {
	out := Expr{IDs: append([]int32(nil), e.IDs...), Const: e.Const != b}
	return out
}

// HasVirtual reports whether e references any virtual (negative) record id,
// i.e. an implicit outcome no hardware record reports. Such expressions
// cannot be evaluated against a hardware record table.
func (e Expr) HasVirtual() bool {
	for _, id := range e.IDs {
		if id < 0 {
			return true
		}
	}
	return false
}

// Eval evaluates e against a record table. Record ids absent from the table
// cause a panic, which indicates a compiler/simulator mismatch.
func (e Expr) Eval(records map[int32]bool) bool {
	v := e.Const
	for _, id := range e.IDs {
		b, ok := records[id]
		if !ok {
			panic(fmt.Sprintf("expr: record %d not present", id))
		}
		if b {
			v = !v
		}
	}
	return v
}

// EvalWords evaluates e on up to 64 shots at once against record-major
// words: words[id] holds record id's outcome with bit i for shot lane i,
// and bit i of the result is e's value on lane i. Every id must index
// words (ids are dense and non-negative in a record plane).
func (e Expr) EvalWords(words []uint64) uint64 {
	var v uint64
	if e.Const {
		v = ^v
	}
	for _, id := range e.IDs {
		v ^= words[id]
	}
	return v
}

// CheckRecords reports an error unless every record id of e lies in
// [0, n): a formula must pass it before it is read against an n-record
// plane.
func (e Expr) CheckRecords(n int) error {
	for _, id := range e.IDs {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("expr: record %d outside [0, %d)", id, n)
		}
	}
	return nil
}

// Equal reports structural equality.
func (e Expr) Equal(o Expr) bool {
	if e.Const != o.Const || len(e.IDs) != len(o.IDs) {
		return false
	}
	for i := range e.IDs {
		if e.IDs[i] != o.IDs[i] {
			return false
		}
	}
	return true
}

// String renders the expression, e.g. "m3⊕m17⊕1".
func (e Expr) String() string {
	if len(e.IDs) == 0 {
		if e.Const {
			return "1"
		}
		return "0"
	}
	var sb strings.Builder
	for i, id := range e.IDs {
		if i > 0 {
			sb.WriteString("⊕")
		}
		fmt.Fprintf(&sb, "m%d", id)
	}
	if e.Const {
		sb.WriteString("⊕1")
	}
	return sb.String()
}
