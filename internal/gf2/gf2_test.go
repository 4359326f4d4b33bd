package gf2

import (
	"math/bits"
	"math/rand"
	"testing"
)

// vec is an augmented row as a bitset of up to 128 bits: columns
// 0..cols-1, then the right-hand side at bit cols.
type vec [2]uint64

func (v vec) xor(w vec) vec     { return vec{v[0] ^ w[0], v[1] ^ w[1]} }
func (v vec) bit(c int) bool    { return v[c/64]>>(c%64)&1 == 1 }
func (v *vec) flip(c int)       { v[c/64] ^= 1 << (c % 64) }
func (v vec) ones() int         { return bits.OnesCount64(v[0]) + bits.OnesCount64(v[1]) }
func (v vec) coef(cols int) vec { w := v; w[cols/64] &^= 1 << (cols % 64); return w }
func rhsOnly(cols int) (v vec)  { v.flip(cols); return v }
func (m *System) vecOf(i int) (v vec) {
	for c := 0; c <= m.cols; c++ {
		if m.Bit(i, c) {
			v.flip(c)
		}
	}
	return v
}

// span returns every GF(2) combination of rows, by enumerating subsets.
func span(rows []vec) map[vec]bool {
	out := make(map[vec]bool, 1<<len(rows))
	for mask := 0; mask < 1<<len(rows); mask++ {
		var v vec
		for i, r := range rows {
			if mask>>i&1 == 1 {
				v = v.xor(r)
			}
		}
		out[v] = true
	}
	return out
}

func sameSet(a, b map[vec]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// TestEliminateMatchesBruteForce reduces random systems of every rank,
// with dependent, duplicate and contradictory rows, over narrow and
// multi-word column counts, on one reused System. Rank, consistency and
// the reduced rows are checked against brute force: the span of the
// rows (over all row subsets) and, up to 10 columns, the solution set
// (over all assignments).
func TestEliminateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m System
	inconsistent, duplicates := 0, 0
	for _, cols := range []int{0, 1, 2, 3, 5, 8, 10, 63, 64, 65, 100} {
		maxRank := min(cols, 10)
		seen := make([]bool, maxRank+1)
		for target := 0; target <= maxRank; target++ {
			for trial := 0; trial < 8; trial++ {
				// Rows are random combinations of target random vectors,
				// so the rank is at most target (and usually equal).
				basis := make([]vec, target)
				for i := range basis {
					for c := 0; c < cols; c++ {
						if rng.Intn(2) == 0 {
							basis[i].flip(c)
						}
					}
				}
				var rows []vec
				for range target + rng.Intn(3) {
					var v vec
					for _, b := range basis {
						if rng.Intn(2) == 0 {
							v = v.xor(b)
						}
					}
					if rng.Intn(2) == 0 {
						v.flip(cols)
					}
					rows = append(rows, v)
				}
				if len(rows) > 0 && rng.Intn(3) == 0 {
					dup := rows[rng.Intn(len(rows))]
					if rng.Intn(2) == 0 {
						dup.flip(cols) // same columns, other rhs: 0 = 1 once reduced
					}
					rows = append(rows, dup)
					duplicates++
				}

				m.Reset(cols)
				for _, v := range rows {
					i := m.AddRow(v.bit(cols))
					for c := 0; c < cols; c++ {
						if v.bit(c) {
							m.Flip(i, c)
						}
					}
				}
				rank, consistent := m.Eliminate()

				coefs := make([]vec, len(rows))
				for i, v := range rows {
					coefs[i] = v.coef(cols)
				}
				if n := len(span(coefs)); n != 1<<rank {
					t.Fatalf("cols %d rows %v: rank %d, but the rows span %d vectors", cols, rows, rank, n)
				}
				orig := span(rows)
				if consistent == orig[rhsOnly(cols)] {
					t.Fatalf("cols %d rows %v: consistent = %v, but 0 = 1 in the span is %v", cols, rows, consistent, orig[rhsOnly(cols)])
				}
				reduced := make([]vec, len(rows))
				for i := range rows {
					reduced[i] = m.vecOf(i)
				}
				if !sameSet(span(reduced), orig) {
					t.Fatalf("cols %d rows %v: reduced rows %v span another space", cols, rows, reduced)
				}
				for i, v := range reduced {
					if m.Rhs(i) != v.bit(cols) || m.Weight(i) != v.coef(cols).ones() {
						t.Fatalf("cols %d row %d: Rhs/Weight disagree with the row %v", cols, i, v)
					}
					if i >= rank {
						if v.coef(cols) != (vec{}) {
							t.Fatalf("cols %d: row %d past rank %d holds columns: %v", cols, i, rank, v)
						}
						continue
					}
					p := m.Pivot(i)
					if i > 0 && p <= m.Pivot(i-1) {
						t.Fatalf("cols %d: pivots %d then %d do not increase", cols, m.Pivot(i-1), p)
					}
					for c := 0; c < p; c++ {
						if v.bit(c) {
							t.Fatalf("cols %d: row %d holds column %d before its pivot %d", cols, i, c, p)
						}
					}
					for j := range reduced {
						if reduced[j].bit(p) != (j == i) {
							t.Fatalf("cols %d: pivot column %d of row %d is set in row %d", cols, p, i, j)
						}
					}
				}
				if cols <= 10 {
					solutions := 0
					for x := uint64(0); x < 1<<cols; x++ {
						ok := true
						for _, v := range rows {
							if bits.OnesCount64(v[0]&x)%2 == 1 != v.bit(cols) {
								ok = false
								break
							}
						}
						if ok {
							solutions++
						}
					}
					if consistent != (solutions > 0) || consistent && solutions != 1<<(cols-rank) {
						t.Fatalf("cols %d rows %v: rank %d consistent %v, but %d solutions", cols, rows, rank, consistent, solutions)
					}
				}
				seen[rank] = true
				if !consistent {
					inconsistent++
				}
			}
		}
		for r, ok := range seen {
			if !ok {
				t.Errorf("cols %d: no system of rank %d", cols, r)
			}
		}
	}
	if inconsistent == 0 || duplicates == 0 {
		t.Errorf("%d inconsistent systems, %d with a duplicate row: want both > 0", inconsistent, duplicates)
	}
}
