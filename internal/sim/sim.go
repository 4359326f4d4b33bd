// Package sim implements the word-parallel logic simulator that VACSEM
// embeds in its #SAT solver and uses as the exhaustive-enumeration
// baseline. Sixty-four input patterns are evaluated per machine word; a
// circuit is compiled once into a flat instruction tape (Program) that
// streams batches of BatchWords words, and exhaustive enumeration
// splits the pattern-block range across a bounded worker pool. Memory
// stays O(#nodes) per worker regardless of the input-space size.
package sim

import (
	"math/rand"
	"time"

	"vacsem/internal/circuit"
)

// RandomVectors fills count simulation words per input from the given
// source, returning a matrix indexed [input][word].
func RandomVectors(nInputs, words int, rng *rand.Rand) [][]uint64 {
	m := make([][]uint64, nInputs)
	for i := range m {
		row := make([]uint64, words)
		for w := range row {
			row[w] = rng.Uint64()
		}
		m[i] = row
	}
	return m
}

// RunAllNodes evaluates the circuit on `words` blocks of precomputed
// input vectors and returns the full per-node signatures, indexed
// [node][word]. Signatures are the workhorse of simulation-guided
// approximate synthesis: two nodes with close signatures are candidates
// for substitution. Every gate is lowered (none is dead here) and keeps
// its literal, so a node's signature is gathered out of the kernel's
// value array as its literal's slot, complemented when the literal is.
func RunAllNodes(c *circuit.Circuit, vectors [][]uint64, words int) [][]uint64 {
	start := time.Now()
	lw := newLowerer(1)
	p, lits := lw.lowerCircuit(c, nil)
	lw.program(p, start)
	sigs := make([][]uint64, len(c.Nodes))
	buf := make([]uint64, len(c.Nodes)*words)
	for id := range sigs {
		sigs[id] = buf[id*words : (id+1)*words : (id+1)*words]
	}
	p.runVectors(vectors, words, func(v []uint64, w0, n int) {
		for id, l := range lits {
			dst, src := sigs[id][w0:w0+n], v[l.off:l.off+int32(n)]
			if !l.neg {
				copy(dst, src)
				continue
			}
			for w := range dst {
				dst[w] = ^src[w]
			}
		}
	})
	return sigs
}
