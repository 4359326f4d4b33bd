package engine

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/counter"
	"vacsem/internal/obs"
	"vacsem/internal/store"
)

// Per-task metrics, updated once per finished task (sub-miter).
var (
	mSubMiters   = obs.Default.Counter("engine.sub_miters")
	mSubTrivial  = obs.Default.Counter("engine.sub_miters_trivial")
	hSubSeconds  = obs.Default.Histogram("engine.sub_miter_seconds", nil)
	hSynthReduce = obs.Default.Histogram("engine.synth_node_ratio",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
)

// Emitter is the runner's side of one Backend.Count call. Its methods
// are safe for concurrent use.
type Emitter struct {
	be    Backend
	req   *Request
	ctx   context.Context // carries the backend span and the run ID
	tr    *obs.Tracer
	batch time.Time    // when Count was called
	start []time.Time  // per task, set by begin
	spans []obs.SpanID // per task, set by begin
	mu    sync.Mutex   // serializes finish
	res   []TaskResult
	done  int
}

// Execute runs one verification session on be and returns every task's
// result, indexed like req.Tasks. Inside one "backend" span it resolves
// each task it can without the backend — the four trivial outputs, then
// the store's cone tier under the backend's guarantee — hands the rest
// to be.Count in one call, and records each count the backend computes
// in the store. Every task is emitted exactly once (see finish).
//
// On error the partial results are discarded; ctx errors are returned
// verbatim. A full result set is returned even when ctx expired after
// the last task finished: the approx backend completes a task *because*
// its deadline expired (a best-effort estimate).
func Execute(ctx context.Context, be Backend, req *Request) ([]TaskResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	if v, ok := be.(validator); ok {
		if err := v.Validate(req); err != nil {
			return nil, err
		}
	}
	n := len(req.Tasks)
	e := &Emitter{
		be: be, req: req, tr: obs.Active(),
		start: make([]time.Time, n), spans: make([]obs.SpanID, n), res: make([]TaskResult, n),
	}
	if e.tr != nil {
		span := e.tr.StartSpan(obs.SpanFrom(ctx), "backend", obs.Fields{
			"backend": be.Name(), "session": req.Session, "tasks": n,
		})
		ctx = obs.WithSpan(ctx, span)
		defer e.tr.EndSpan(span, "backend", nil)
	}
	e.ctx = ctx
	want := storeGuarantee(be, &req.Config)
	var todo []int
	for j := range req.Tasks {
		start := time.Now()
		if res, ok := e.triage(j, want); ok {
			e.begin(ctx, j, start)
			e.finish(j, res, nil)
		} else {
			todo = append(todo, j)
		}
	}
	e.batch = time.Now()
	if len(todo) > 0 {
		if err := be.Count(ctx, req, todo, e); err != nil {
			return nil, err
		}
	}
	if e.done != n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("engine: backend %s reported %d of %d tasks", be.Name(), e.done, n)
	}
	return e.res, nil
}

// Emit reports the result of task j (an index into Request.Tasks) for a
// backend that counts its tasks in one batch: the task starts with the
// batch.
func (e *Emitter) Emit(j int, res TaskResult) {
	e.begin(e.ctx, j, e.batch)
	e.finish(j, res, nil)
}

// emitShare reports the result of task j, one of the tasks a shared
// pass that just ended counted together, with share — its part of the
// pass's wall time — as its Runtime, so the Runtimes of a pass's tasks
// sum to the pass.
func (e *Emitter) emitShare(j int, res TaskResult, share time.Duration) {
	e.begin(e.ctx, j, time.Now().Add(-share))
	e.finish(j, res, nil)
}

// triage resolves task j without the backend when its sub-miter's output
// is trivial after constant propagation, or when the store holds its
// cone under a guarantee at least as tight as want. The cone key is an
// exact content address, so a hit IS the count the backend would
// produce.
func (e *Emitter) triage(j int, want store.Req) (TaskResult, bool) {
	t := &e.req.Tasks[j]
	total := e.req.Miter.NumInputs()
	res := TaskResult{Count: new(big.Int), Trivial: true}
	if sub := t.Sub; sub != nil {
		out := sub.Outputs[0]
		nd := &sub.Nodes[out]
		switch {
		case out == 0:
			return res, true
		case nd.Kind == circuit.Not && nd.Fanins[0] == 0:
			res.Count.Lsh(big.NewInt(1), uint(total))
			return res, true
		case nd.Kind == circuit.Input,
			nd.Kind == circuit.Not && sub.Nodes[nd.Fanins[0]].Kind == circuit.Input:
			// A bare or negated input: exactly half the patterns.
			res.Count.Lsh(big.NewInt(1), uint(total-1))
			return res, true
		}
	}
	var entry *store.ConeEntry
	if st := e.storeFor(t); st != nil {
		entry, _ = st.LookupCone(t.Key, want)
	}
	if entry == nil {
		return TaskResult{}, false
	}
	res = TaskResult{Count: res.Count.Lsh(entry.Count, uint(total-t.KeyInputs)), FromStore: true}
	if !entry.Exact {
		res.Approx, res.Epsilon, res.Delta, res.BestEffort = true, entry.Epsilon, entry.Delta, entry.BestEffort
	}
	return res, true
}

// storeFor returns the store whose cone tier may hold task t: nil without
// a store or for a task the plan layer did not key.
func (e *Emitter) storeFor(t *CountTask) *store.Store {
	if t.Key == "" || t.KeyInputs < 0 || t.KeyInputs > e.req.Miter.NumInputs() {
		return nil
	}
	return e.req.Config.Store
}

// storeGuarantee is the resolved guarantee be's counts carry: exact for
// every backend but approx, whose guarantee is the session's (ε, δ)
// resolved with counter.ApproxCount's defaults — the store compares
// guarantees literally, so lookup and record must both present the
// resolved values.
func storeGuarantee(be Backend, cfg *Config) store.Req {
	if cb, ok := be.(*countingBackend); !ok || !cb.approx {
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

// record publishes a count the backend computed to the cone tier,
// normalized to the cone's own 2^KeyInputs space so any later session —
// whatever its total input count — can rescale it exactly. The key pins
// the inputs the cone reaches, so the normalization is an exact right
// shift; the round-trip check makes that assumption load-bearing rather
// than silent (a lossy shift would poison every later request sharing
// the key).
func (e *Emitter) record(t *CountTask, res *TaskResult) {
	st := e.storeFor(t)
	if st == nil {
		return
	}
	shift := uint(e.req.Miter.NumInputs() - t.KeyInputs)
	stored := new(big.Int).Rsh(res.Count, shift)
	if new(big.Int).Lsh(stored, shift).Cmp(res.Count) != 0 {
		return
	}
	entry := store.ConeEntry{Count: stored, Inputs: t.KeyInputs, Backend: e.be.Name(), Exact: !res.Approx}
	if res.Approx {
		entry.Epsilon, entry.Delta, entry.Seed, entry.BestEffort = res.Epsilon, res.Delta, e.req.Config.Seed, res.BestEffort
	}
	st.StoreCone(t.Key, entry)
}

// begin opens task j: its task_start hub line and its "sub_miter" span
// under ctx's span. The returned context carries the task's span, so the
// counter's component/cache/sim_decision events nest under it.
func (e *Emitter) begin(ctx context.Context, j int, start time.Time) context.Context {
	t := &e.req.Tasks[j]
	e.start[j] = start
	if obs.Stream.Active() {
		obs.Stream.Publish("task_start", obs.Fields{
			"run_id": obs.RunFrom(ctx), "backend": e.be.Name(),
			"index": j, "label": t.Label, "nodes_before": t.NodesBefore,
		})
	}
	if e.tr != nil {
		e.spans[j] = e.tr.StartSpan(obs.SpanFrom(ctx), "sub_miter", obs.Fields{
			"backend": e.be.Name(), "index": j, "output": t.Label,
			"nodes_before": t.NodesBefore,
		})
		ctx = obs.WithSpan(ctx, e.spans[j])
	}
	return ctx
}

// finish is the single emit point of a begun task: it stamps the task's
// Runtime, records a computed count in the store, and turns the result
// into the engine.sub_miter* metrics, the task_done hub line, the
// "sub_miter" span end and — unless the task failed — its result slot
// and TaskEvent. Calls are serialized.
func (e *Emitter) finish(j int, res TaskResult, err error) {
	t := &e.req.Tasks[j]
	res.Runtime = time.Since(e.start[j])
	if res.Count == nil {
		res.Count = new(big.Int)
	}
	if err == nil && !res.Trivial && !res.FromStore {
		e.record(t, &res)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	mSubMiters.Inc()
	if res.Trivial {
		mSubTrivial.Inc()
	}
	hSubSeconds.Observe(res.Runtime.Seconds())
	if t.NodesBefore > 0 {
		hSynthReduce.Observe(float64(t.NodesAfter) / float64(t.NodesBefore))
	}
	if obs.Stream.Active() {
		f := obs.Fields{
			"run_id": obs.RunFrom(e.ctx), "backend": e.be.Name(),
			"index": j, "label": t.Label,
			"count": res.Count.String(), "seconds": res.Runtime.Seconds(),
			"trivial": res.Trivial, "from_store": res.FromStore,
		}
		if err != nil {
			f["error"] = err.Error()
		}
		obs.Stream.Publish("task_done", f)
	}
	if e.tr != nil {
		f := obs.Fields{
			"index": j, "output": t.Label,
			"nodes_after": t.NodesAfter, "trivial": res.Trivial,
			"count": res.Count.String(), "stats": res.Stats,
		}
		if err != nil {
			f["error"] = err.Error()
		}
		e.tr.EndSpan(e.spans[j], "sub_miter", f)
	}
	if err != nil {
		return
	}
	e.res[j] = res
	e.done++
	if e.req.Progress != nil {
		e.req.Progress(TaskEvent{
			TaskResult: res, Backend: e.be.Name(), Index: j, Label: t.Label,
			Done: e.done, Total: len(e.req.Tasks),
		})
	}
}

// forEach counts the tasks in todo one by one on a bounded pool of
// Config.Workers goroutines, each task under its own span (fn receives
// the task's context). Workers claim tasks from an atomic cursor; the
// first error cancels the rest, and every in-flight task notices within
// one poll interval. A panic on a pool goroutine is re-raised on the
// caller's goroutine, where it can be recovered, instead of killing the
// process.
func (e *Emitter) forEach(ctx context.Context, todo []int, fn func(ctx context.Context, j int) (TaskResult, error)) error {
	workers := e.req.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(todo)))
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor    atomic.Int64
		firstErr  error
		errOnce   sync.Once
		panicked  any // first task panic, set once by panicOnce
		panicOnce sync.Once
		wg        sync.WaitGroup
	)
	cursor.Store(-1)
	worker := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
				cancel()
			}
		}()
		for {
			i := int(cursor.Add(1))
			if i >= len(todo) || gctx.Err() != nil {
				return
			}
			j := todo[i]
			res, err := fn(e.begin(gctx, j, time.Now()), j)
			e.finish(j, res, err)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
				return
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}
