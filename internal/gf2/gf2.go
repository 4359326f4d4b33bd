// Package gf2 reduces linear systems over GF(2) by Gauss–Jordan
// elimination. It is the one eliminator behind the counter's parity-row
// propagator, its independent-support pass and the simulator's affine
// input subspaces (the XOR hash cells of approximate counting).
package gf2

import "math/bits"

// System is a set of equations a·x = b over a fixed number of columns.
// Rows are bitsets stored back to back in one flat slice, stride words
// each: column c is bit c of its row and the right-hand side b is bit
// cols, so row operations carry it along. Reset keeps the storage, so a
// System reused across calls stops allocating once it has grown.
type System struct {
	cols, stride, rows int
	words              []uint64
	pivots             []int // pivot column of each reduced row
}

// Reset empties the system and sets its number of columns.
func (m *System) Reset(cols int) {
	m.cols = cols
	m.stride = cols/64 + 1
	m.rows = 0
	m.words = m.words[:0]
	m.pivots = m.pivots[:0]
}

// AddRow appends the equation 0 = rhs and returns its index; Flip adds
// the row's columns.
func (m *System) AddRow(rhs bool) int {
	i := m.rows
	m.rows++
	m.words = append(m.words, make([]uint64, m.stride)...)
	if rhs {
		m.words[i*m.stride+m.cols/64] = 1 << (m.cols % 64)
	}
	return i
}

// Flip adds column col to row i; a column added twice cancels.
func (m *System) Flip(i, col int) {
	m.words[i*m.stride+col/64] ^= 1 << (col % 64)
}

// Bit reports whether row i holds column col.
func (m *System) Bit(i, col int) bool {
	return m.words[i*m.stride+col/64]>>(col%64)&1 == 1
}

// Rhs returns the right-hand side of row i.
func (m *System) Rhs(i int) bool { return m.Bit(i, m.cols) }

// Weight returns the number of columns row i holds.
func (m *System) Weight(i int) int {
	n := 0
	for _, w := range m.row(i) {
		n += bits.OnesCount64(w)
	}
	if m.Rhs(i) {
		n--
	}
	return n
}

// Pivot returns the pivot column of reduced row i < rank, which is also
// the row's first column.
func (m *System) Pivot(i int) int { return m.pivots[i] }

func (m *System) row(i int) []uint64 {
	return m.words[i*m.stride : (i+1)*m.stride]
}

// Eliminate brings the system to reduced row-echelon form. Columns are
// taken left to right; a column's pivot is the first row at or below the
// current rank that holds it, swapped up to the rank, and it is added to
// every other row holding the column. Rows 0..rank-1 then each hold their
// pivot column and no other pivot column, and the rows past the rank
// read 0 = rhs: the system is consistent when every such rhs is 0.
func (m *System) Eliminate() (rank int, consistent bool) {
	m.pivots = m.pivots[:0]
	r := 0
	for col := 0; col < m.cols && r < m.rows; col++ {
		p := r
		for p < m.rows && !m.Bit(p, col) {
			p++
		}
		if p == m.rows {
			continue
		}
		pr, pp := m.row(r), m.row(p)
		for k := range pr {
			pr[k], pp[k] = pp[k], pr[k]
		}
		for i := 0; i < m.rows; i++ {
			if i != r && m.Bit(i, col) {
				ri := m.row(i)
				for k := range ri {
					ri[k] ^= pr[k]
				}
			}
		}
		m.pivots = append(m.pivots, col)
		r++
	}
	for i := r; i < m.rows; i++ {
		if m.Rhs(i) {
			return r, false
		}
	}
	return r, true
}
