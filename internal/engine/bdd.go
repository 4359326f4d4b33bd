package engine

import (
	"context"
	"math/big"

	"vacsem/internal/bdd"
	"vacsem/internal/circuit"
	"vacsem/internal/synth"
)

// bddBackend verifies through decision diagrams: synthesize the session
// miter, restricted to the cones of the tasks left to the backend,
// build one ROBDD per task bit, and count over the diagrams — the
// prior-art flow of the paper's references [3]-[6]. One manager is
// shared across every task (and therefore every metric of the session),
// so structurally shared deviation logic is built once. Explosion
// surfaces as bdd.ErrNodeLimit; cancellation is polled inside the ITE
// apply loop.
type bddBackend struct{}

func (bddBackend) Name() string { return "bdd" }

func (bddBackend) Count(ctx context.Context, req *Request, todo []int, emit *Emitter) error {
	work, shift := restrict(req.Miter, todo)
	if !req.Config.NoSynth {
		work = synth.Compress(work)
	}
	mgr := bdd.New(work.NumInputs(), req.Config.BDDNodeLimit)
	// XOR-rooted task outputs (the ER/Hamming deviation bits: exact XOR
	// approx) are counted by the pair traversal over their two fanin
	// diagrams instead of materializing the XOR — the XOR of two large
	// diagrams is routinely bigger than both, and is exactly where
	// fixed-order BDD flows blow their node budget.
	targets := make([]int, 0, len(work.Outputs)) // node ids to build
	targetAt := make([]int, len(work.Outputs))   // output -> index in targets
	pairTask := make([]bool, len(work.Outputs))  // output counted as a pair?
	for i, o := range work.Outputs {
		targetAt[i] = len(targets)
		if nd := &work.Nodes[o]; nd.Kind == circuit.Xor {
			pairTask[i] = true
			targets = append(targets, nd.Fanins[0], nd.Fanins[1])
			continue
		}
		targets = append(targets, o)
	}
	refs, err := mgr.Build(ctx, work, bdd.DFSOrder(work), targets)
	if err != nil {
		return err
	}
	for i, j := range todo {
		f := refs[targetAt[i]]
		var n *big.Int
		if pairTask[i] {
			n = mgr.CountDifferent(f, refs[targetAt[i]+1])
		} else {
			n = mgr.CountOnes(f)
		}
		emit.Emit(j, TaskResult{Count: new(big.Int).Lsh(n, shift)})
	}
	return nil
}
