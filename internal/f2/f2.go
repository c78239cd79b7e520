// Package f2 provides dense linear algebra over GF(2) using bit-packed rows.
// It backs the parity-check-matrix bookkeeping of the surface-code compiler
// and the derivation of measurement-outcome formulas.
package f2

import "strings"

// Matrix is a dense GF(2) matrix with bit-packed rows.
type Matrix struct {
	Rows, Cols int
	words      int
	data       []uint64 // Rows × words
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	w := (cols + 63) / 64
	if w == 0 {
		w = 1
	}
	return &Matrix{Rows: rows, Cols: cols, words: w, data: make([]uint64, rows*w)}
}

// FromRows builds a matrix from boolean rows (all must share a length).
func FromRows(rows [][]bool) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// Get reports entry (i, j).
func (m *Matrix) Get(i, j int) bool {
	return m.data[i*m.words+j>>6]>>(uint(j)&63)&1 == 1
}

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v bool) {
	if v {
		m.data[i*m.words+j>>6] |= 1 << (uint(j) & 63)
	} else {
		m.data[i*m.words+j>>6] &^= 1 << (uint(j) & 63)
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.data, m.data)
	return c
}

// XorRow xors row src into row dst.
func (m *Matrix) XorRow(dst, src int) {
	d := m.data[dst*m.words : (dst+1)*m.words]
	s := m.data[src*m.words : (src+1)*m.words]
	for k := range d {
		d[k] ^= s[k]
	}
}

// SwapRows exchanges two rows.
func (m *Matrix) SwapRows(a, b int) {
	if a == b {
		return
	}
	ra := m.data[a*m.words : (a+1)*m.words]
	rb := m.data[b*m.words : (b+1)*m.words]
	for k := range ra {
		ra[k], rb[k] = rb[k], ra[k]
	}
}

// Row returns the packed words of row i (shared storage).
func (m *Matrix) Row(i int) []uint64 { return m.data[i*m.words : (i+1)*m.words] }

// Rank returns the GF(2) rank of m (m is not modified).
func (m *Matrix) Rank() int {
	e := m.Clone()
	_, pivots := e.RowReduce()
	return len(pivots)
}

// RowReduce performs in-place Gauss–Jordan elimination and returns the
// reduced matrix's pivot columns in order. The receiver is modified.
func (m *Matrix) RowReduce() (*Matrix, []int) {
	var pivots []int
	r := 0
	for c := 0; c < m.Cols && r < m.Rows; c++ {
		sel := -1
		for i := r; i < m.Rows; i++ {
			if m.Get(i, c) {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		m.SwapRows(r, sel)
		for i := 0; i < m.Rows; i++ {
			if i != r && m.Get(i, c) {
				m.XorRow(i, r)
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return m, pivots
}

// Solve finds x with xᵀ·m = target, i.e. expresses the target row vector as
// a GF(2) combination of the rows of m. It returns the selected row indices
// and ok=false when no solution exists. m is not modified.
func (m *Matrix) Solve(target []bool) (rows []int, ok bool) {
	if len(target) != m.Cols {
		panic("f2: target length mismatch")
	}
	// Augment each row with an identity tag so row operations record the
	// combination; then eliminate against the target.
	aug := NewMatrix(m.Rows, m.Cols+m.Rows)
	for i := 0; i < m.Rows; i++ {
		copy(aug.Row(i), m.Row(i))
		aug.Set(i, m.Cols+i, true)
	}
	t := NewMatrix(1, m.Cols+m.Rows)
	for j, v := range target {
		t.Set(0, j, v)
	}
	r := 0
	for c := 0; c < m.Cols && r < m.Rows; c++ {
		sel := -1
		for i := r; i < aug.Rows; i++ {
			if aug.Get(i, c) {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		aug.SwapRows(r, sel)
		for i := 0; i < aug.Rows; i++ {
			if i != r && aug.Get(i, c) {
				aug.XorRow(i, r)
			}
		}
		if t.Get(0, c) {
			tr := t.Row(0)
			ar := aug.Row(r)
			for k := range tr {
				tr[k] ^= ar[k]
			}
		}
		r++
	}
	// Any remaining one in the first Cols columns means inconsistency.
	for c := 0; c < m.Cols; c++ {
		if t.Get(0, c) {
			return nil, false
		}
	}
	for i := 0; i < m.Rows; i++ {
		if t.Get(0, m.Cols+i) {
			rows = append(rows, i)
		}
	}
	return rows, true
}

// String renders the matrix as rows of 0/1 characters.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Get(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		if i < m.Rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
