package sim

import (
	"fmt"
	"slices"

	"vacsem/internal/circuit"
)

// Resim keeps every node's signature of a circuit over fixed input
// vectors and re-simulates one changed node incrementally, the scoring
// loop of simulation-guided approximate synthesis: after the caller
// rewrites a node of the circuit, Update re-evaluates only that node's
// transitive fanout, gate by gate in topological (ascending id) order,
// into scratch signatures, and stops propagating at every node whose
// signature comes out equal to its kept one. Cand reads the candidate's
// signatures, Sig the kept ones, and Commit makes the candidate the kept
// state instead of re-simulating the circuit.
//
// A candidate is one gate rewrite, so compiling it to a tape would cost
// more than evaluating it: a component compile alone takes longer than
// a typical whole incremental update (DESIGN.md §3e).
type Resim struct {
	c      *circuit.Circuit
	kept   [][]uint64 // [node][word]: the committed circuit's signatures
	next   [][]uint64 // [node][word]: candidate signatures where changed
	fanout [][]int32  // readers of each node in the committed circuit
	// changed marks the nodes whose candidate signature differs from the
	// kept one; touched lists them in ascending id order.
	changed []bool
	touched []int32
	pending []bool // nodes queued for re-evaluation by Update
}

// NewResim simulates c on `words` blocks of input vectors (vectors[i][w]
// is input i's word w) through RunAllNodes and keeps every node's
// signature. Every node of c must read only lower ids, and every rewrite
// passed to Update must keep it so: Update evaluates in ascending id
// order.
func NewResim(c *circuit.Circuit, vectors [][]uint64, words int) *Resim {
	n := len(c.Nodes)
	r := &Resim{
		c:       c,
		kept:    RunAllNodes(c, vectors, words),
		next:    make([][]uint64, n),
		changed: make([]bool, n),
		pending: make([]bool, n),
	}
	buf := make([]uint64, n*words)
	for id := range r.next {
		r.next[id] = buf[id*words : (id+1)*words : (id+1)*words]
	}
	r.indexFanout()
	return r
}

// indexFanout rebuilds the reader lists from the circuit's fanins.
func (r *Resim) indexFanout() {
	if r.fanout == nil {
		r.fanout = make([][]int32, len(r.c.Nodes))
	}
	for id := range r.fanout {
		r.fanout[id] = r.fanout[id][:0]
	}
	for id, nd := range r.c.Nodes {
		for _, f := range nd.Fanins {
			r.fanout[f] = append(r.fanout[f], int32(id))
		}
	}
}

// Sig returns node id's kept signature. It must not be modified.
func (r *Resim) Sig(id int) []uint64 { return r.kept[id] }

// Cand returns node id's signature in the candidate of the last Update:
// its scratch signature where the update changed it, its kept one
// elsewhere. It must not be modified.
func (r *Resim) Cand(id int) []uint64 {
	if r.changed[id] {
		return r.next[id]
	}
	return r.kept[id]
}

// Update re-simulates the circuit after the caller rewrote gate id (its
// kind or fanins; every fanin below id), discarding the previous
// candidate. Only nodes whose signature changes are re-evaluated past
// id: a reader is queued when one of its fanins changed.
func (r *Resim) Update(id int) {
	for _, n := range r.touched {
		r.changed[n] = false
	}
	r.touched = r.touched[:0]
	r.pending[id] = true
	last := id
	for n := id; n <= last; n++ {
		if !r.pending[n] {
			continue
		}
		r.pending[n] = false
		nd := &r.c.Nodes[n]
		var fi [3][]uint64
		for k, f := range nd.Fanins {
			fi[k] = r.Cand(f)
		}
		dst := r.next[n]
		evalGate(nd.Kind, dst, fi)
		if slices.Equal(dst, r.kept[n]) {
			continue
		}
		r.changed[n] = true
		r.touched = append(r.touched, int32(n))
		for _, rd := range r.fanout[n] {
			r.pending[rd] = true
			last = max(last, int(rd))
		}
	}
}

// Commit makes the candidate of the last Update the kept state: the
// changed signatures swap into place, and the reader lists follow the
// rewritten fanins. The circuit must still hold that candidate.
func (r *Resim) Commit() {
	for _, n := range r.touched {
		r.kept[n], r.next[n] = r.next[n], r.kept[n]
		r.changed[n] = false
	}
	r.touched = r.touched[:0]
	r.indexFanout()
}

// evalGate writes the words of a gate of the given kind over its fanins'
// words into dst.
func evalGate(kind circuit.Kind, dst []uint64, fi [3][]uint64) {
	a, b, c := fi[0], fi[1], fi[2]
	switch kind {
	case circuit.Buf:
		copy(dst, a)
	case circuit.Not:
		a = a[:len(dst)]
		for w := range dst {
			dst[w] = ^a[w]
		}
	case circuit.And:
		a, b = a[:len(dst)], b[:len(dst)]
		for w := range dst {
			dst[w] = a[w] & b[w]
		}
	case circuit.Nand:
		a, b = a[:len(dst)], b[:len(dst)]
		for w := range dst {
			dst[w] = ^(a[w] & b[w])
		}
	case circuit.Or:
		a, b = a[:len(dst)], b[:len(dst)]
		for w := range dst {
			dst[w] = a[w] | b[w]
		}
	case circuit.Nor:
		a, b = a[:len(dst)], b[:len(dst)]
		for w := range dst {
			dst[w] = ^(a[w] | b[w])
		}
	case circuit.Xor:
		a, b = a[:len(dst)], b[:len(dst)]
		for w := range dst {
			dst[w] = a[w] ^ b[w]
		}
	case circuit.Xnor:
		a, b = a[:len(dst)], b[:len(dst)]
		for w := range dst {
			dst[w] = ^(a[w] ^ b[w])
		}
	case circuit.Mux:
		a, b, c = a[:len(dst)], b[:len(dst)], c[:len(dst)]
		for w := range dst {
			dst[w] = (a[w] & c[w]) | (^a[w] & b[w])
		}
	case circuit.Maj:
		a, b, c = a[:len(dst)], b[:len(dst)], c[:len(dst)]
		for w := range dst {
			dst[w] = (a[w] & b[w]) | (a[w] & c[w]) | (b[w] & c[w])
		}
	default:
		panic(fmt.Sprintf("sim: cannot re-simulate %v node", kind))
	}
}
