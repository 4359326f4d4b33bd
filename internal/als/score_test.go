package als

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/sim"
	"vacsem/internal/testutil"
)

// estimateER is the whole-circuit reference for the incremental scorer:
// it re-simulates every node of cand and counts the patterns on which
// some output differs from refOut, the estimate Approximate made before
// it scored rewrites incrementally.
func estimateER(cand *circuit.Circuit, vectors, refOut [][]uint64, words int) float64 {
	sigs := sim.RunAllNodes(cand, vectors, words)
	var errCnt int
	for w := 0; w < words; w++ {
		var diff uint64
		for j, o := range cand.Outputs {
			diff |= sigs[o][w] ^ refOut[j][w]
		}
		errCnt += bits.OnesCount64(diff)
	}
	return float64(errCnt) / float64(words*64)
}

// scoreCircuit is a random circuit with Mux and Maj gates whose outputs
// also include an input, the constant, constant one and a few inner
// gates, so rewrites hit nodes that feed outputs directly.
func scoreCircuit(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := testutil.RandomCircuit(3+rng.Intn(8), 10+rng.Intn(60), 1+rng.Intn(4), seed)
	c.AddOutput(c.Inputs[rng.Intn(len(c.Inputs))], "in")
	c.AddOutput(0, "zero")
	c.AddOutput(c.Const1(), "one")
	for k := 0; k < 2; k++ {
		c.AddOutput(len(c.Inputs)+1+rng.Intn(c.NumNodes()-len(c.Inputs)-1), "")
	}
	return c
}

// TestScorerMatchesWholeCircuitER drives the incremental scorer through
// random rewrites (Buf or Not of an earlier node or the constant),
// accepting about half of them, and requires every score to equal the
// whole-circuit reference exactly, or to exceed the limit it was given
// when the reference does; after each commit the kept signatures must
// equal a fresh simulation of the rewritten circuit.
func TestScorerMatchesWholeCircuitER(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		exact := scoreCircuit(seed)
		words := 1 + rng.Intn(20)
		vectors := sim.RandomVectors(exact.NumInputs(), words, rng)
		exactSigs := sim.RunAllNodes(exact, vectors, words)
		refOut := make([][]uint64, exact.NumOutputs())
		for j, o := range exact.Outputs {
			refOut[j] = exactSigs[o]
		}
		cur := exact.Clone()
		sc := newScorer(cur, vectors, words)
		commits := 0
		for step := 0; step < 40; step++ {
			id := len(cur.Inputs) + 1 + rng.Intn(cur.NumNodes()-len(cur.Inputs)-1)
			nd := &cur.Nodes[id]
			oldKind, oldFanins := nd.Kind, nd.Fanins
			nd.Kind = []circuit.Kind{circuit.Buf, circuit.Not}[rng.Intn(2)]
			nd.Fanins = []int{rng.Intn(id)}
			limit := []float64{math.Inf(1), 0.02, 0.2}[rng.Intn(3)]
			want := estimateER(cur, vectors, refOut, words)
			got := sc.try(id, limit)
			if (want <= limit && got != want) || (want > limit && got <= limit) {
				t.Fatalf("seed %d step %d: rewrite of node %d scores %v under limit %v, whole circuit %v",
					seed, step, id, got, limit, want)
			}
			if want > limit || rng.Intn(2) == 0 {
				nd.Kind, nd.Fanins = oldKind, oldFanins
				continue
			}
			sc.commit()
			commits++
			sigs := sim.RunAllNodes(cur, vectors, words)
			for n := range cur.Nodes {
				if !slices.Equal(sc.resim.Sig(n), sigs[n]) {
					t.Fatalf("seed %d step %d: kept signature of node %d differs after commit", seed, step, n)
				}
			}
			if sc.er != want {
				t.Fatalf("seed %d step %d: kept ER %v, whole circuit %v", seed, step, sc.er, want)
			}
		}
		if commits == 0 {
			t.Fatalf("seed %d: no rewrite committed", seed)
		}
	}
}
