package sim

import (
	"context"
	"fmt"

	"vacsem/internal/gf2"
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
	var m gf2.System
	m.Reset(k)
	for _, row := range rows {
		i := m.AddRow(row.Rhs)
		for _, x := range row.Inputs {
			if x < 0 || x >= k {
				panic(fmt.Sprintf("sim: parity row names input %d of %d", x, k))
			}
			m.Flip(i, x)
		}
	}
	s := &Subspace{k: k}
	rank, consistent := m.Eliminate()
	if !consistent {
		s.empty = true
		return s
	}
	isPivot := make([]bool, k)
	for i := 0; i < rank; i++ {
		isPivot[m.Pivot(i)] = true
	}
	for x := 0; x < k; x++ {
		if !isPivot[x] {
			s.free = append(s.free, x)
		}
	}
	for i := 0; i < rank; i++ {
		pv := affinePivot{input: m.Pivot(i), rhs: m.Rhs(i)}
		for _, x := range s.free {
			if m.Bit(i, x) {
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
	q := &Program{nSlots: p.nSlots, outputs: p.outputs}
	off := p.inputs
	for _, x := range s.free {
		q.inputs = append(q.inputs, off[x])
	}
	for _, pv := range s.pivots {
		dst := off[pv.input]
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
