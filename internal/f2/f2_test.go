package f2

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRank(t *testing.T) {
	m := FromRows([][]bool{
		{true, false, true},
		{false, true, true},
		{true, true, false}, // = row0 + row1
	})
	if r := m.Rank(); r != 2 {
		t.Fatalf("rank = %d, want 2", r)
	}
}

func TestSolveBasic(t *testing.T) {
	m := FromRows([][]bool{
		{true, false, false, true},
		{false, true, false, true},
		{false, false, true, true},
	})
	target := []bool{true, true, false, false} // row0 + row1
	rows, ok := m.Solve(target)
	if !ok {
		t.Fatal("expected solvable")
	}
	// Verify the combination reproduces the target.
	got := make([]bool, 4)
	for _, r := range rows {
		for c := 0; c < 4; c++ {
			if m.Get(r, c) {
				got[c] = !got[c]
			}
		}
	}
	for c := range got {
		if got[c] != target[c] {
			t.Fatalf("combination mismatch at col %d", c)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := FromRows([][]bool{
		{true, false, false},
		{false, true, false},
	})
	if _, ok := m.Solve([]bool{false, false, true}); ok {
		t.Fatal("expected infeasible")
	}
}

func TestNullspace(t *testing.T) {
	m := FromRows([][]bool{
		{true, true, false},
		{false, true, true},
	})
	basis := m.NullspaceBasis()
	if len(basis) != 1 {
		t.Fatalf("nullspace dim = %d, want 1", len(basis))
	}
	v := basis[0]
	prod := m.MulVec(v)
	for i, b := range prod {
		if b {
			t.Fatalf("m·v nonzero at %d", i)
		}
	}
}

// Property test: for random matrices, any random combination of rows is
// solvable and Solve returns a combination reproducing the target.
func TestSolveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + r.Intn(12)
		cols := 1 + r.Intn(20)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.Intn(2) == 1)
			}
		}
		target := make([]bool, cols)
		for i := 0; i < rows; i++ {
			if r.Intn(2) == 1 {
				for c := 0; c < cols; c++ {
					if m.Get(i, c) {
						target[c] = !target[c]
					}
				}
			}
		}
		sel, ok := m.Solve(target)
		if !ok {
			t.Fatalf("trial %d: combination reported unsolvable", trial)
		}
		got := make([]bool, cols)
		for _, i := range sel {
			for c := 0; c < cols; c++ {
				if m.Get(i, c) {
					got[c] = !got[c]
				}
			}
		}
		for c := range got {
			if got[c] != target[c] {
				t.Fatalf("trial %d: mismatch at col %d", trial, c)
			}
		}
	}
}

// Property: rank + nullspace dimension = number of columns.
func TestRankNullity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		rows := 1 + r.Intn(10)
		cols := 1 + r.Intn(16)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.Intn(2) == 1)
			}
		}
		if m.Rank()+len(m.NullspaceBasis()) != cols {
			t.Fatalf("trial %d: rank-nullity violated", trial)
		}
	}
}

func TestRowOps(t *testing.T) {
	m := NewMatrix(2, 70)
	m.Set(0, 69, true)
	m.Set(1, 3, true)
	m.SwapRows(0, 1)
	if !m.Get(0, 3) || !m.Get(1, 69) {
		t.Fatal("SwapRows broken")
	}
	m.XorRow(0, 1)
	if !m.Get(0, 3) || !m.Get(0, 69) {
		t.Fatal("XorRow broken")
	}
}

// The nullspace oracle: an independent computation that TestRankNullity
// checks Rank against.

// NullspaceBasis returns a basis of {x : m·x = 0} as boolean vectors of
// length m.Cols.
func (m *Matrix) NullspaceBasis() [][]bool {
	e := m.Clone()
	_, pivots := e.RowReduce()
	isPivot := make([]bool, m.Cols)
	for _, c := range pivots {
		isPivot[c] = true
	}
	var basis [][]bool
	for c := 0; c < m.Cols; c++ {
		if isPivot[c] {
			continue
		}
		v := make([]bool, m.Cols)
		v[c] = true
		for r, pc := range pivots {
			if e.Get(r, c) {
				v[pc] = true
			}
		}
		basis = append(basis, v)
	}
	return basis
}

// MulVec returns m·x over GF(2).
func (m *Matrix) MulVec(x []bool) []bool {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("f2: MulVec dimension mismatch %d != %d", len(x), m.Cols))
	}
	out := make([]bool, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := false
		for j := 0; j < m.Cols; j++ {
			if m.Get(i, j) && x[j] {
				s = !s
			}
		}
		out[i] = s
	}
	return out
}
