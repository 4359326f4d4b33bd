package sim

import (
	"fmt"
	"math/bits"

	"vacsem/internal/circuit"
)

// Engine evaluates a fixed circuit on blocks of 64 patterns by walking
// the node array directly. It is the reference interpreter the compiled
// Program is tested (and benchmarked) against.
type Engine struct {
	c    *circuit.Circuit
	vals []uint64 // one word per node
}

// NewEngine creates a simulation engine for the circuit.
func NewEngine(c *circuit.Circuit) *Engine {
	return &Engine{c: c, vals: make([]uint64, len(c.Nodes))}
}

// Run evaluates one block: in[i] is the simulation word of the i-th primary
// input. After Run, node words are available through Val and output words
// through Out.
func (e *Engine) Run(in []uint64) {
	c := e.c
	if len(in) != len(c.Inputs) {
		panic(fmt.Sprintf("sim: Run got %d input words, want %d", len(in), len(c.Inputs)))
	}
	v := e.vals
	v[0] = 0
	for i, id := range c.Inputs {
		v[id] = in[i]
	}
	var args [3]uint64
	for id := 1; id < len(c.Nodes); id++ {
		nd := &c.Nodes[id]
		switch nd.Kind {
		case circuit.Input:
			// already set
		case circuit.And:
			v[id] = v[nd.Fanins[0]] & v[nd.Fanins[1]]
		case circuit.Or:
			v[id] = v[nd.Fanins[0]] | v[nd.Fanins[1]]
		case circuit.Xor:
			v[id] = v[nd.Fanins[0]] ^ v[nd.Fanins[1]]
		case circuit.Not:
			v[id] = ^v[nd.Fanins[0]]
		default:
			a := args[:len(nd.Fanins)]
			for j, f := range nd.Fanins {
				a[j] = v[f]
			}
			v[id] = nd.Kind.EvalWord(a)
		}
	}
}

// Val returns the last simulation word of a node.
func (e *Engine) Val(node int) uint64 { return e.vals[node] }

// Out returns the last simulation word of the i-th primary output.
func (e *Engine) Out(i int) uint64 { return e.vals[e.c.Outputs[i]] }

// interpCountOnes is the interpreter's exhaustive walk: per-output
// counts of the patterns setting each output, block by block.
func interpCountOnes(c *circuit.Circuit) []uint64 {
	n := len(c.Inputs)
	total := uint64(1) << uint(n)
	e := NewEngine(c)
	in := make([]uint64, n)
	counts := make([]uint64, len(c.Outputs))
	for blk := uint64(0); blk*64 < total; blk++ {
		for k := range in {
			in[k] = inputWord(k, blk)
		}
		e.Run(in)
		mask := blockMask(blk, total)
		for j := range counts {
			counts[j] += uint64(bits.OnesCount64(e.Out(j) & mask))
		}
	}
	return counts
}
