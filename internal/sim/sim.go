// Package sim implements the word-parallel logic simulator that VACSEM
// embeds in its #SAT solver and uses as the exhaustive-enumeration
// baseline. Sixty-four input patterns are evaluated per machine word; a
// circuit is compiled once into a flat instruction tape (Program) that
// streams batches of BatchWords words, and exhaustive enumeration
// splits the pattern-block range across a bounded worker pool. Memory
// stays O(#nodes) per worker regardless of the input-space size.
package sim

import (
	"context"
	"math/rand"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/obs"
)

// Metrics of the exhaustive-enumeration path. Updates happen once per
// enumeration (one CountOnesPerOutputWorkers call), not per block, so
// the always-on cost is a few atomic adds per enumeration.
var (
	mEnumPatterns = obs.Default.Counter("sim.enum_patterns")
	mEnumBlocks   = obs.Default.Counter("sim.enum_blocks")
	hEnumSeconds  = obs.Default.Histogram("sim.enum_batch_seconds", nil)
)

// CountOnesPerOutputWorkers exhaustively counts, for every primary
// output, the number of input patterns under which that output is 1,
// compiling the circuit once and splitting the pattern-block range
// across up to `workers` goroutines (<= 0 means GOMAXPROCS). Per-output
// tallies are merged by addition, so the result is bit-identical to the
// serial walk at any worker count. The block loop polls ctx once per
// claimed work chunk.
func CountOnesPerOutputWorkers(ctx context.Context, c *circuit.Circuit, workers int) ([]uint64, error) {
	n := len(c.Inputs)
	if n > 62 {
		panic("sim: exhaustive enumeration beyond 62 inputs")
	}
	total := uint64(1) << uint(n)
	blocks := (total + 63) / 64
	if blocks == 0 {
		blocks = 1
	}
	start := time.Now()
	p := CompileOutputs(c)
	counts, err := p.CountOnes(ctx, workers)
	if err != nil {
		return nil, err
	}
	mEnumPatterns.Add(total)
	mEnumBlocks.Add(blocks)
	hEnumSeconds.Observe(time.Since(start).Seconds())
	return counts, nil
}

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

// RunMany evaluates the circuit on `words` blocks of precomputed input
// vectors (vectors[i][w] is input i's word w) and returns the output
// vectors indexed [output][word].
func RunMany(c *circuit.Circuit, vectors [][]uint64, words int) [][]uint64 {
	p := CompileOutputs(c)
	out := make([][]uint64, len(c.Outputs))
	for j := range out {
		out[j] = make([]uint64, words)
	}
	p.runVectors(vectors, words, func(v []uint64, w0, n int) {
		for j, o := range p.outputs {
			copy(out[j][w0:w0+n], v[o:o+int32(n)])
		}
	})
	return out
}

// RunAllNodes evaluates the circuit on `words` blocks of precomputed
// input vectors and returns the full per-node signatures, indexed
// [node][word]. Signatures are the workhorse of simulation-guided
// approximate synthesis: two nodes with close signatures are candidates
// for substitution. Full-circuit programs assign slot i to node i, so
// the signatures are gathered straight out of the kernel's value array.
func RunAllNodes(c *circuit.Circuit, vectors [][]uint64, words int) [][]uint64 {
	p := Compile(c)
	sigs := make([][]uint64, len(c.Nodes))
	for id := range sigs {
		sigs[id] = make([]uint64, words)
	}
	p.runVectors(vectors, words, func(v []uint64, w0, n int) {
		for id := range sigs {
			o := int32(id) * BatchWords
			copy(sigs[id][w0:w0+n], v[o:o+int32(n)])
		}
	})
	return sigs
}
