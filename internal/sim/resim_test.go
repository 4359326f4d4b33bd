package sim

import (
	"math/rand"
	"slices"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/testutil"
)

// TestResimMatchesRunAllNodes rewrites random gates of random circuits
// into a Buf, a Not or another gate kind over earlier nodes, and requires
// every node's candidate signature after Update to equal a whole-circuit
// RunAllNodes of the rewritten circuit; about half the rewrites are
// committed, after which the kept signatures must equal it too. Word
// counts cover single words and partial batches.
func TestResimMatchesRunAllNodes(t *testing.T) {
	kinds := []circuit.Kind{circuit.Buf, circuit.Not, circuit.And, circuit.Xnor, circuit.Mux, circuit.Maj}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nIn := 2 + rng.Intn(8)
		c := testutil.RandomCircuit(nIn, 5+rng.Intn(60), 1+rng.Intn(4), seed)
		words := 1 + rng.Intn(2*BatchWords+3)
		vectors := RandomVectors(nIn, words, rng)
		r := NewResim(c, vectors, words)
		for step := 0; step < 30; step++ {
			id := nIn + 1 + rng.Intn(len(c.Nodes)-nIn-1)
			nd := &c.Nodes[id]
			oldKind, oldFanins := nd.Kind, nd.Fanins
			nd.Kind = kinds[rng.Intn(len(kinds))]
			nd.Fanins = make([]int, nd.Kind.FaninCount())
			for k := range nd.Fanins {
				nd.Fanins[k] = rng.Intn(id)
			}
			r.Update(id)
			want := RunAllNodes(c, vectors, words)
			for n := range c.Nodes {
				if !slices.Equal(r.Cand(n), want[n]) {
					t.Fatalf("seed %d step %d: rewrite of node %d: candidate signature of node %d differs", seed, step, id, n)
				}
			}
			if rng.Intn(2) == 0 {
				nd.Kind, nd.Fanins = oldKind, oldFanins
				continue
			}
			r.Commit()
			for n := range c.Nodes {
				if !slices.Equal(r.Sig(n), want[n]) {
					t.Fatalf("seed %d step %d: kept signature of node %d differs after commit", seed, step, n)
				}
			}
		}
	}
}
