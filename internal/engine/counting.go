package engine

import (
	"context"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/obs"
	"vacsem/internal/store"
)

// Per-task metrics, updated once per solved task (sub-miter).
var (
	mSubMiters   = obs.Default.Counter("engine.sub_miters")
	mSubTrivial  = obs.Default.Counter("engine.sub_miters_trivial")
	hSubSeconds  = obs.Default.Histogram("engine.sub_miter_seconds", nil)
	hSynthReduce = obs.Default.Histogram("engine.synth_node_ratio",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
)

// countingBackend runs the #SAT flow of the paper: each task is one
// single-output sub-miter (Phase 1's split, performed by the plan
// layer) handed to the model counter (Phase 2). With enableSim it is
// the VACSEM engine; without, the plain-DPLL baseline (the GANAK role).
// With approx it is the (ε, δ) backend: each task's count is estimated
// by XOR streamlining (counter.ApproxCount) instead of counted exactly.
//
// Tasks are independent #SAT problems, so the backend solves them on a
// bounded worker pool (Config.Workers). Each worker builds its own
// Solver, so counts are bit-identical to the sequential run (the approx
// backend derives its hash rows purely from Config.Seed and each row's
// position, so its estimates are equally order-independent); results
// are collected by task index, making the result slice deterministic
// regardless of completion order.
type countingBackend struct {
	name      string
	enableSim bool
	approx    bool
}

func (b *countingBackend) Name() string { return b.name }

func (b *countingBackend) Execute(ctx context.Context, req *Request) ([]TaskResult, error) {
	results := make([]TaskResult, len(req.Tasks))

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
	case req.Config.DisableCache:
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

	workers := req.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Tasks) {
		workers = len(req.Tasks)
	}
	if workers < 1 {
		workers = 1
	}

	// Backend span: parents every sub_miter span (and, through the
	// context, the counter's component/cache/sim_decision events).
	tr := obs.Active()
	if tr != nil {
		beSpan := tr.StartSpan(obs.SpanFrom(ctx), "backend", obs.Fields{
			"backend": b.name, "session": req.Session,
			"tasks": len(req.Tasks), "workers": workers,
		})
		ctx = obs.WithSpan(ctx, beSpan)
		defer tr.EndSpan(beSpan, "backend", nil)
	}

	// The pool: workers claim task indexes from an atomic cursor. The
	// first error cancels the group's context, and every in-flight
	// solver notices within one poll interval.
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor    atomic.Int64
		completed atomic.Int64
		firstErr  error
		errOnce   sync.Once
		panicked  any // first task panic, set once by panicOnce
		panicOnce sync.Once
		progMu    sync.Mutex
		doneN     int // completed tasks, guarded by progMu
		wg        sync.WaitGroup
	)
	cursor.Store(-1)
	solve := func() {
		defer wg.Done()
		// A panic left on a pool goroutine would kill the process; catch
		// it here and re-raise it on Execute's goroutine below, where the
		// caller can recover it.
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
				cancel()
			}
		}()
		for {
			j := int(cursor.Add(1))
			if j >= len(req.Tasks) || gctx.Err() != nil {
				return
			}
			tres, err := b.solveTask(gctx, req, j, cache, probes)
			results[j] = tres
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
				return
			}
			completed.Add(1)
			if req.Progress != nil {
				progMu.Lock()
				doneN++
				req.Progress(TaskEvent{
					Backend: b.name,
					Index:   j, Label: req.Tasks[j].Label,
					Count: tres.Count,
					Done:  doneN, Total: len(req.Tasks),
					Runtime: tres.Runtime, Stats: tres.Stats, Trivial: tres.Trivial,
					Approx: tres.Approx, FromStore: tres.FromStore,
				})
				progMu.Unlock()
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go solve()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// A worker can also stop on the parent context without recording an
	// error (it observed gctx.Err() between tasks) — but only a context
	// that actually left tasks unsolved may surface here. The approx
	// backend completes a task *because* the deadline expired (a
	// best-effort median over the rounds that ran), so a full result set
	// must be returned even when ctx has since expired: checking
	// ctx.Err() unconditionally would discard every best-effort result.
	if int(completed.Load()) != len(req.Tasks) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// solveTask runs Phase 2 on one prepared single-output sub-miter. The
// sub_miter trace span and the per-task metrics cover every exit path
// (trivial, encode error, counter error, success).
func (b *countingBackend) solveTask(ctx context.Context, req *Request, j int, cache *counter.Cache, probes *counter.ProbeCache) (res TaskResult, err error) {
	t := &req.Tasks[j]
	start := time.Now()
	res = TaskResult{Count: new(big.Int)}
	runID := obs.RunFrom(ctx)
	if obs.Stream.Active() {
		obs.Stream.Publish("task_start", obs.Fields{
			"run_id": runID, "backend": b.name,
			"index": j, "label": t.Label, "nodes_before": t.NodesBefore,
		})
	}
	tr := obs.Active()
	var span obs.SpanID
	if tr != nil {
		span = tr.StartSpan(obs.SpanFrom(ctx), "sub_miter", obs.Fields{
			"backend": b.name, "index": j, "output": t.Label,
			"nodes_before": t.NodesBefore,
		})
		ctx = obs.WithSpan(ctx, span)
	}
	defer func() {
		res.Runtime = time.Since(start)
		mSubMiters.Inc()
		if res.Trivial {
			mSubTrivial.Inc()
		}
		hSubSeconds.Observe(res.Runtime.Seconds())
		if obs.Stream.Active() {
			f := obs.Fields{
				"run_id": runID, "backend": b.name,
				"index": j, "label": t.Label,
				"count": res.Count.String(), "seconds": res.Runtime.Seconds(),
				"trivial": res.Trivial, "from_store": res.FromStore,
			}
			if err != nil {
				f["error"] = err.Error()
			}
			obs.Stream.Publish("task_done", f)
		}
		if tr != nil {
			f := obs.Fields{
				"index": j, "output": t.Label,
				"nodes_after": t.NodesAfter, "trivial": res.Trivial,
				"count": res.Count.String(), "stats": res.Stats,
			}
			if err != nil {
				f["error"] = err.Error()
			}
			tr.EndSpan(span, "sub_miter", f)
		}
	}()
	if t.NodesBefore > 0 {
		hSynthReduce.Observe(float64(t.NodesAfter) / float64(t.NodesBefore))
	}
	sub := t.Sub
	totalInputs := req.Miter.NumInputs()
	// Trivial outcomes after constant propagation.
	out := sub.Outputs[0]
	nd := &sub.Nodes[out]
	switch {
	case out == 0:
		res.Trivial = true
	case nd.Kind == circuit.Not && nd.Fanins[0] == 0:
		res.Count.Lsh(big.NewInt(1), uint(totalInputs))
		res.Trivial = true
	case nd.Kind == circuit.Input:
		// Output is a bare input: exactly half the patterns.
		res.Count.Lsh(big.NewInt(1), uint(totalInputs-1))
		res.Trivial = true
	case nd.Kind == circuit.Not && sub.Nodes[nd.Fanins[0]].Kind == circuit.Input:
		// Output is a negated input: also exactly half the patterns.
		res.Count.Lsh(big.NewInt(1), uint(totalInputs-1))
		res.Trivial = true
	default:
		// Cross-request reuse: consult the store's cone tier by the
		// task's canonical key before paying for encode + solve. The key
		// is an exact content address, so a compatible hit IS the count
		// this solver would produce (bit-identical for exact backends).
		if e, ok := b.storeLookup(req, t, totalInputs); ok {
			res.Count.Lsh(e.Count, uint(totalInputs-t.KeyInputs))
			res.FromStore = true
			if !e.Exact {
				res.Approx = true
				res.Epsilon = e.Epsilon
				res.Delta = e.Delta
				res.BestEffort = e.BestEffort
			}
			return res, nil
		}
		var f *cnf.Formula
		f, err = cnf.Encode(sub)
		if err != nil {
			return res, err
		}
		solverCfg := counter.Config{
			EnableSim:       b.enableSim,
			Alpha:           req.Config.Alpha,
			MaxSimVars:      req.Config.MaxSimVars,
			MinSimGates:     req.Config.MinSimGates,
			DisableCache:    req.Config.DisableCache,
			DisableIBCP:     req.Config.DisableIBCP,
			DisableLearning: req.Config.DisableLearning,
			Cache:           cache,
			CacheOwner:      int32(j) + 1,
		}
		var cnt *big.Int
		if b.approx {
			cnt, err = b.approxTask(ctx, req, f, solverCfg, probes, &res)
		} else {
			s := counter.New(f, solverCfg)
			cnt, err = s.CountCtx(ctx)
			res.Stats = s.Stats()
		}
		if err != nil {
			// Propagate verbatim: context errors, encode errors and any
			// future counter failure all keep their identity (the old
			// flow conflated everything into a timeout).
			return res, err
		}
		// Scale by inputs outside the encoded cone. The approx estimate
		// scales the same way: the un-encoded inputs are free, so the
		// relative (1+ε) band is preserved by the power-of-two factor.
		extra := totalInputs - f.NumEncodedInputs()
		res.Count.Lsh(cnt, uint(extra))
		b.storeRecord(req, t, totalInputs, &res)
	}
	return res, nil
}

// storeGuarantee is the resolved guarantee this backend's counts carry:
// exact for the exact backends, the session's (ε, δ) for the approx
// backend, resolved with counter.ApproxCount's defaults — the store
// compares guarantees literally, so lookup and record must both present
// the resolved values.
func (b *countingBackend) storeGuarantee(cfg *Config) store.Req {
	if !b.approx {
		return store.Req{Exact: true}
	}
	eps, delta := cfg.Epsilon, cfg.Delta
	if eps <= 0 {
		eps = counter.DefaultEpsilon
	}
	if delta <= 0 {
		delta = counter.DefaultDelta
	}
	return store.Req{Epsilon: eps, Delta: delta}
}

// storeLookup consults the cross-request cone tier for task t. Only
// plan-built tasks carry a key; requests without a store (or with
// caching disabled) skip the tier entirely.
func (b *countingBackend) storeLookup(req *Request, t *CountTask, totalInputs int) (*store.ConeEntry, bool) {
	st := req.Config.Store
	if st == nil || req.Config.DisableCache || t.Key == "" ||
		t.KeyInputs < 0 || t.KeyInputs > totalInputs {
		return nil, false
	}
	return st.LookupCone(t.Key, b.storeGuarantee(&req.Config))
}

// storeRecord publishes a freshly solved count to the cone tier,
// normalized to the cone's own 2^KeyInputs space so any later session —
// whatever its total input count — can rescale it exactly. res.Count
// is cnt << (totalInputs - encodedInputs) and the key pins
// encodedInputs ≤ KeyInputs ≤ totalInputs, so the normalization is an
// exact right shift; the round-trip check below makes that assumption
// load-bearing rather than silent (a lossy shift would poison every
// later request sharing the key).
func (b *countingBackend) storeRecord(req *Request, t *CountTask, totalInputs int, res *TaskResult) {
	st := req.Config.Store
	if st == nil || req.Config.DisableCache || t.Key == "" ||
		t.KeyInputs < 0 || t.KeyInputs > totalInputs {
		return
	}
	shift := uint(totalInputs - t.KeyInputs)
	stored := new(big.Int).Rsh(res.Count, shift)
	if new(big.Int).Lsh(stored, shift).Cmp(res.Count) != 0 {
		return
	}
	e := store.ConeEntry{
		Count:   stored,
		Inputs:  t.KeyInputs,
		Backend: b.name,
	}
	if res.Approx {
		e.Epsilon = res.Epsilon
		e.Delta = res.Delta
		e.Seed = req.Config.Seed
		e.BestEffort = res.BestEffort
	} else {
		e.Exact = true
	}
	st.StoreCone(t.Key, e)
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
