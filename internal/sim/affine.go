package sim

import (
	"context"
	"fmt"
)

// Parity is one affine constraint over a program's enumerated inputs:
// the XOR of the inputs at positions Inputs (0-based, in the program's
// input order) equals Rhs. A position listed twice cancels.
type Parity struct {
	Inputs []int
	Rhs    bool
}

// Subspace is the solution set {x : Hx = b} of a parity system over k
// inputs in Gauss–Jordan reduced form: r pivot inputs, each the XOR of
// some of the k − r free inputs (plus a constant), or no solution at all
// when the system is inconsistent.
type Subspace struct {
	k      int
	empty  bool
	free   []int // free input positions, ascending
	pivots []affinePivot
}

// affinePivot defines pivot input `input` as the XOR of the free inputs
// at positions `of`, complemented when rhs is set.
type affinePivot struct {
	input int
	of    []int
	rhs   bool
}

// NewSubspace reduces the parity system rows over k inputs by
// Gauss–Jordan elimination. Rows may be dependent; an inconsistent
// system yields the empty subspace.
func NewSubspace(k int, rows []Parity) *Subspace {
	words := (k + 64) / 64 // k coefficient bits, then the rhs bit at k
	m := make([][]uint64, len(rows))
	for i, row := range rows {
		r := make([]uint64, words)
		for _, x := range row.Inputs {
			if x < 0 || x >= k {
				panic(fmt.Sprintf("sim: parity row names input %d of %d", x, k))
			}
			r[x/64] ^= 1 << (x % 64)
		}
		if row.Rhs {
			r[k/64] |= 1 << (k % 64)
		}
		m[i] = r
	}
	bit := func(r []uint64, x int) bool { return r[x/64]>>(x%64)&1 == 1 }
	s := &Subspace{k: k}
	pivotOf := make([]int, 0, len(rows)) // column of each reduced row
	rank := 0
	for col := 0; col < k && rank < len(m); col++ {
		p := -1
		for i := rank; i < len(m); i++ {
			if bit(m[i], col) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m[rank], m[p] = m[p], m[rank]
		for i := range m {
			if i != rank && bit(m[i], col) {
				for w := range m[i] {
					m[i][w] ^= m[rank][w]
				}
			}
		}
		pivotOf = append(pivotOf, col)
		rank++
	}
	// Rows past the rank have no coefficient left: 0 = rhs.
	for _, r := range m[rank:] {
		if bit(r, k) {
			s.empty = true
			return s
		}
	}
	isPivot := make([]bool, k)
	for _, col := range pivotOf {
		isPivot[col] = true
	}
	for x := 0; x < k; x++ {
		if !isPivot[x] {
			s.free = append(s.free, x)
		}
	}
	for i, col := range pivotOf {
		pv := affinePivot{input: col, rhs: bit(m[i], k)}
		for _, x := range s.free {
			if bit(m[i], x) {
				pv.of = append(pv.of, x)
			}
		}
		s.pivots = append(s.pivots, pv)
	}
	return s
}

// Empty reports that the system is inconsistent: no input pattern
// satisfies it.
func (s *Subspace) Empty() bool { return s.empty }

// Dim returns the number of free inputs CountOnesAffine enumerates:
// k − rank for a consistent subspace, which holds 2^Dim patterns, and 0
// for an empty one.
func (s *Subspace) Dim() int { return len(s.free) }

// CountOnesAffine returns, per output, the number of patterns of the
// subspace s (over the program's inputs) under which that output is 1.
// The free inputs are enumerated exactly as CountOnes enumerates a
// program's inputs; each pivot input is computed from them by XOR
// instructions at the head of the tape. An empty subspace counts 0, and
// a subspace with no rows equals CountOnes. workers and cancellation
// behave as in CountOnes.
func (p *Program) CountOnesAffine(ctx context.Context, workers int, s *Subspace) ([]uint64, error) {
	if s.k != len(p.inputs) {
		panic(fmt.Sprintf("sim: subspace over %d inputs, program has %d", s.k, len(p.inputs)))
	}
	if s.empty {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return make([]uint64, len(p.outputs)), nil
	}
	// CompileOutputs parks inputs outside every output cone in one shared
	// write-only slot. A free input there gets a slot of its own, since a
	// pivot may read it; a pivot there is never read and is not computed.
	shared := make(map[int32]int, len(p.inputs))
	for _, o := range p.inputs {
		shared[o]++
	}
	q := &Program{nSlots: p.nSlots, outputs: p.outputs}
	off := make([]int32, len(p.inputs))
	copy(off, p.inputs)
	for _, x := range s.free {
		if shared[off[x]] > 1 {
			off[x] = int32(q.nSlots) * BatchWords
			q.nSlots++
		}
		q.inputs = append(q.inputs, off[x])
	}
	for _, pv := range s.pivots {
		dst := off[pv.input]
		if shared[dst] > 1 {
			continue
		}
		switch len(pv.of) {
		case 0: // constant: slot 0 holds zero
			q.ins = append(q.ins, instr{op: xorOp(opBuf, opNot, pv.rhs), dst: dst})
		case 1:
			q.ins = append(q.ins, instr{op: xorOp(opBuf, opNot, pv.rhs), dst: dst, a: off[pv.of[0]]})
		default:
			acc := off[pv.of[0]]
			for i, x := range pv.of[1:] {
				last := i == len(pv.of)-2
				q.ins = append(q.ins, instr{op: xorOp(opXor, opXnor, last && pv.rhs), dst: dst, a: acc, b: off[x]})
				acc = dst
			}
		}
	}
	q.ins = append(q.ins, p.ins...)
	q.initPool()
	return q.CountOnes(ctx, workers)
}

// xorOp picks the plain or the complemented opcode.
func xorOp(plain, complemented opcode, rhs bool) opcode {
	if rhs {
		return complemented
	}
	return plain
}
