package engine

import (
	"context"
	"math/big"

	"vacsem/internal/cnf"
	"vacsem/internal/counter"
)

// countingBackend runs the #SAT flow of the paper: each task is one
// single-output sub-miter (Phase 1's split, performed by the plan
// layer) handed to the model counter (Phase 2). With enableSim it is
// the VACSEM engine; without, the plain-DPLL baseline (the GANAK role).
// With approx it is the (ε, δ) backend: each task's count is estimated
// by XOR streamlining (counter.ApproxCount) instead of counted exactly.
//
// Tasks are independent #SAT problems, so the backend solves them on the
// runner's bounded pool (Config.Workers). Each task builds its own
// Solver, so counts are bit-identical to the sequential run (the approx
// backend derives its hash rows purely from Config.Seed and each row's
// position, so its estimates are equally order-independent).
type countingBackend struct {
	name      string
	enableSim bool
	approx    bool
}

func (b *countingBackend) Name() string { return b.name }

// Count solves every task in todo with its own counter on the runner's
// pool.
func (b *countingBackend) Count(ctx context.Context, req *Request, todo []int, emit *Emitter) error {
	// One shared component-count cache for the whole session: the tasks
	// embed the same two circuit copies and subtractor — across every
	// requested metric — so canonical residual components recur and a
	// count solved inside one task is reused by the rest. Owner tags
	// (index+1) let the cache distinguish cross-task hits from
	// same-solver hits.
	// A cross-request store supersedes the per-session cache: its
	// component tier plays the shared-cache role with a process-long
	// lifetime, so residual components transfer across sessions too.
	var cache *counter.Cache
	switch {
	case req.Config.Store != nil:
		cache = req.Config.Store.Components()
	case req.Config.SharedCache:
		cache = counter.NewCache(0, 0)
	}
	// One shared probe cache for the approx backend: hash rows depend
	// only on the session seed and the row position, so structurally
	// identical sub-miters (same encoded CNF content) draw identical
	// rows and their boundary probes collide here — each cell is counted
	// once per session instead of once per task. Sharing never changes
	// an estimate.
	var probes *counter.ProbeCache
	if b.approx {
		probes = counter.NewProbeCache(0)
	}
	return emit.forEach(ctx, todo, func(ctx context.Context, j int) (TaskResult, error) {
		return b.count(ctx, req, j, cache, probes)
	})
}

// count runs Phase 2 on task j's prepared single-output sub-miter.
func (b *countingBackend) count(ctx context.Context, req *Request, j int, cache *counter.Cache, probes *counter.ProbeCache) (TaskResult, error) {
	res := TaskResult{Count: new(big.Int)}
	f, err := cnf.Encode(req.Tasks[j].Sub)
	if err != nil {
		return res, err
	}
	solverCfg := counter.Config{
		EnableSim:  b.enableSim,
		Alpha:      req.Config.Alpha,
		Cache:      cache,
		CacheOwner: int32(j) + 1,
	}
	var cnt *big.Int
	if b.approx {
		cnt, err = b.approxTask(ctx, req, f, solverCfg, probes, &res)
	} else {
		s := counter.New(f, solverCfg)
		cnt, err = s.Count(ctx)
		res.Stats = s.Stats()
	}
	if err != nil {
		// Propagate verbatim: context errors, encode errors and any
		// future counter failure all keep their identity.
		return res, err
	}
	// Scale by inputs outside the encoded cone. The approx estimate
	// scales the same way: the un-encoded inputs are free, so the
	// relative (1+ε) band is preserved by the power-of-two factor.
	res.Count.Lsh(cnt, uint(req.Miter.NumInputs()-f.NumEncodedInputs()))
	return res, nil
}

// approxTask estimates one task's count with counter.ApproxCount. The
// hash support is the sub-miter's encoded primary inputs — a Tseitin
// formula's models are determined by its input projection, so the input
// set is an independent support and hashing over it is sound (and far
// cheaper than hashing over all gate variables). Every task draws its
// rows from the session seed alone, never from the task index or worker
// identity: content-identical tasks therefore draw identical rows and
// share probe outcomes through the session probe cache. (Estimates of
// sibling tasks become correlated; the core layer's confidence
// aggregation uses the union bound, which is valid under arbitrary
// correlation.)
func (b *countingBackend) approxTask(ctx context.Context, req *Request, f *cnf.Formula, solverCfg counter.Config, probes *counter.ProbeCache, res *TaskResult) (*big.Int, error) {
	var inputs []int32
	for _, id := range f.Circ.Inputs {
		if v := f.VarOfNode[id]; v != 0 {
			inputs = append(inputs, v)
		}
	}
	ar, err := counter.ApproxCount(ctx, f, counter.ApproxConfig{
		Epsilon:  req.Config.Epsilon,
		Delta:    req.Config.Delta,
		Seed:     req.Config.Seed,
		Sampling: inputs,
		Probes:   probes,
		Solver:   solverCfg,
	})
	if err != nil {
		return nil, err
	}
	res.Stats = ar.Stats
	res.SupportBefore = ar.SupportBefore
	res.SupportAfter = ar.SupportAfter
	res.HashDensity = ar.HashDensity
	if !ar.Exact {
		res.Approx = true
		res.Epsilon = ar.Epsilon
		res.Delta = ar.Delta
		res.BestEffort = ar.BestEffort
	}
	return ar.Count, nil
}
