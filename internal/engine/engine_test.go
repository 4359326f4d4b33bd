package engine_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/engine"
	"vacsem/internal/gen"
	"vacsem/internal/plan"
)

func TestRegistryBuiltins(t *testing.T) {
	want := []string{"bdd", "dpll", "enum", "vacsem"}
	got := engine.Names()
	if len(got) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", got, want)
	}
	for _, name := range want {
		b, err := engine.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, b.Name())
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := engine.Lookup("no-such-backend"); err == nil {
		t.Fatal("Lookup of unknown backend succeeded")
	}
}

// medRequest compiles the MED session of a lower-OR adder against the
// exact ripple-carry adder: multi-task, so the counting backends fan
// out. The request is built by the plan layer, exactly as core does.
func medRequest(t *testing.T, width int) (*plan.Plan, *engine.Request) {
	t.Helper()
	exact := gen.RippleCarryAdder(width)
	approx := als.LowerORAdder(width, 3)
	p, err := plan.Build(context.Background(), exact, approx,
		[]plan.Spec{{Kind: plan.MED}}, false)
	if err != nil {
		t.Fatal(err)
	}
	return p, &engine.Request{
		Session: p.Session, Miter: p.Exec, Tasks: p.Tasks,
	}
}

func TestBackendsAgree(t *testing.T) {
	_, req := medRequest(t, 6) // 12 inputs: enum is exact ground truth
	var want []engine.TaskResult
	for _, name := range []string{"enum", "vacsem", "dpll", "bdd"} {
		b, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		results, err := b.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != len(req.Tasks) {
			t.Fatalf("%s: %d results for %d tasks", name, len(results), len(req.Tasks))
		}
		if want == nil {
			want = results
			continue
		}
		for j := range results {
			if results[j].Count.Cmp(want[j].Count) != 0 {
				t.Errorf("%s: task %d (%s) count = %v, want %v",
					name, j, req.Tasks[j].Label, results[j].Count, want[j].Count)
			}
		}
	}
}

func TestWorkersDeterministic(t *testing.T) {
	b, err := engine.Lookup("vacsem")
	if err != nil {
		t.Fatal(err)
	}
	_, req := medRequest(t, 12)
	req.Config.Workers = 1
	seq, err := b.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Config.Workers = 4
	par, err := b.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result count mismatch: %d vs %d", len(seq), len(par))
	}
	for j := range seq {
		if seq[j].Count.Cmp(par[j].Count) != 0 {
			t.Errorf("task %d (%s): count %v vs %v", j,
				req.Tasks[j].Label, par[j].Count, seq[j].Count)
		}
	}
}

func TestProgressEvents(t *testing.T) {
	b, err := engine.Lookup("vacsem")
	if err != nil {
		t.Fatal(err)
	}
	_, req := medRequest(t, 8)
	req.Config.Workers = 4
	var (
		mu     sync.Mutex
		events []engine.TaskEvent
	)
	req.Progress = func(ev engine.TaskEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	results, err := b.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(results) {
		t.Fatalf("%d progress events for %d tasks", len(events), len(results))
	}
	seenIdx := make(map[int]bool)
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d", i, ev.Done, i+1)
		}
		if ev.Total != len(req.Tasks) {
			t.Errorf("event %d: Total = %d, want %d", i, ev.Total, len(req.Tasks))
		}
		if seenIdx[ev.Index] {
			t.Errorf("index %d reported twice", ev.Index)
		}
		seenIdx[ev.Index] = true
		if ev.Count == nil || ev.Count.Cmp(results[ev.Index].Count) != 0 {
			t.Errorf("event for index %d: count %v, want %v",
				ev.Index, ev.Count, results[ev.Index].Count)
		}
		if ev.Backend != "vacsem" || ev.Label != req.Tasks[ev.Index].Label {
			t.Errorf("event %d: backend/label = %q/%q", i, ev.Backend, ev.Label)
		}
	}
}

// TestProgressSerialized pins the documented callback contract under
// Workers > 1: calls never overlap, and every event carries the task's
// own runtime and counter statistics (matching what the results later
// report for that index).
func TestProgressSerialized(t *testing.T) {
	b, err := engine.Lookup("vacsem")
	if err != nil {
		t.Fatal(err)
	}
	_, req := medRequest(t, 8)
	req.Config.Workers = 4
	var (
		inside     atomic.Int32
		overlapped atomic.Bool
		events     = make(map[int]engine.TaskEvent) // unguarded on purpose: -race flags overlap too
	)
	req.Progress = func(ev engine.TaskEvent) {
		if inside.Add(1) != 1 {
			overlapped.Store(true)
		}
		time.Sleep(100 * time.Microsecond) // widen any race window
		events[ev.Index] = ev
		inside.Add(-1)
	}
	results, err := b.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("progress callback entered concurrently; contract says calls are serialized")
	}
	if len(events) != len(results) {
		t.Fatalf("%d progress events for %d tasks", len(events), len(results))
	}
	for idx, ev := range events {
		res := results[idx]
		if ev.Stats != res.Stats {
			t.Errorf("index %d: event stats %+v, result stats %+v", idx, ev.Stats, res.Stats)
		}
		if ev.Runtime != res.Runtime {
			t.Errorf("index %d: event runtime %v, result runtime %v", idx, ev.Runtime, res.Runtime)
		}
		if !ev.Trivial && ev.Runtime <= 0 {
			t.Errorf("index %d: non-trivial task reported runtime %v", idx, ev.Runtime)
		}
	}
}

func TestTaskResultCountNonNil(t *testing.T) {
	// Identical circuits: every deviation bit propagates to constant 0,
	// and the plan dedups them into a single trivial task. Count must
	// still be non-nil everywhere.
	c := gen.RippleCarryAdder(4)
	p, err := plan.Build(context.Background(), c, c.Clone(),
		[]plan.Spec{{Kind: plan.MED}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks) != 1 {
		t.Errorf("identical circuits compiled to %d tasks, want 1 (all bits const0)", len(p.Tasks))
	}
	req := &engine.Request{Session: p.Session, Miter: p.Exec, Tasks: p.Tasks}
	for _, name := range []string{"vacsem", "dpll", "enum", "bdd"} {
		b, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		results, err := b.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j := range results {
			if results[j].Count == nil {
				t.Errorf("%s: task %d has nil Count", name, j)
			} else if results[j].Count.Sign() != 0 {
				t.Errorf("%s: identical circuits task %d count = %v, want 0",
					name, j, results[j].Count)
			}
		}
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, req := medRequest(t, 10)
	for _, name := range []string{"vacsem", "enum", "bdd"} {
		b, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Execute(ctx, req); err != context.Canceled {
			t.Errorf("%s with cancelled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// lateDeadlineCtx models a deadline that expires after the last task
// completes but before the pool's post-wait context check: Err()
// already reports expiry while Done() (inherited nil from Background)
// never fired, so no solver ever aborted. The approx backend produces
// exactly this shape for real — a best-effort task *completes because*
// the deadline expired — so a full result set must survive an expired
// context. An earlier version of the pool checked ctx.Err()
// unconditionally after the workers drained and discarded every
// best-effort result as a timeout.
type lateDeadlineCtx struct{ context.Context }

func (lateDeadlineCtx) Err() error { return context.DeadlineExceeded }

func TestCompletedResultsSurviveLateDeadline(t *testing.T) {
	_, req := medRequest(t, 6)
	b, err := engine.Lookup("vacsem")
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Execute(lateDeadlineCtx{context.Background()}, req)
	if err != nil {
		t.Fatalf("Execute discarded completed results on a late deadline: %v", err)
	}
	if len(results) != len(req.Tasks) {
		t.Fatalf("%d results for %d tasks", len(results), len(req.Tasks))
	}
	want, err := b.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for j := range results {
		if results[j].Count.Cmp(want[j].Count) != 0 {
			t.Errorf("task %d (%s) count = %v, want %v",
				j, req.Tasks[j].Label, results[j].Count, want[j].Count)
		}
	}
}

// TestTaskPanicReachesCaller: a task that panics on a pool goroutine
// (here: a task without a sub-miter) is re-raised on Execute's own
// goroutine, where the caller can recover it, instead of killing the
// process.
func TestTaskPanicReachesCaller(t *testing.T) {
	_, req := medRequest(t, 4)
	req.Tasks = append(req.Tasks[:0:0], req.Tasks...)
	req.Tasks[len(req.Tasks)-1].Sub = nil
	req.Config.Workers = 2
	b, err := engine.Lookup("dpll")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Execute returned normally; want the task panic re-raised")
		}
	}()
	b.Execute(context.Background(), req)
}
