package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
)

// TestCancelMidCount cancels the context while the DPLL counter is deep
// in its search on a hard miter (a 10x10 multiplier ER problem runs for
// tens of seconds) and asserts a prompt return with context.Canceled —
// real cancellation, not deadline expiry.
func TestCancelMidCount(t *testing.T) {
	exact := gen.ArrayMultiplier(10)
	approx := als.TruncatedMultiplier(10, 5)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Verify(ctx, exact, approx, MetricSpec{Kind: MetricER}, Options{Method: MethodDPLL})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: the solvers poll every 1024 decisions, far below
	// a second of work; the slack covers loaded CI machines.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestCancelEnumMidCount exercises the simulator's per-chunk poll: a
// 28-input enumeration (2^22 blocks) is cancelled mid-loop.
func TestCancelEnumMidCount(t *testing.T) {
	exact := gen.RippleCarryAdder(14)
	approx := als.LowerORAdder(14, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Verify(ctx, exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodEnum})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestCancelledContextNotConflatedWithTimeout is the regression test for
// the old solveSub behaviour that mapped every counter error to
// ErrTimeout: a cancelled context must surface as context.Canceled.
func TestCancelledContextNotConflatedWithTimeout(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	approx := als.LowerORAdder(8, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodVACSEM, MethodDPLL, MethodEnum, MethodBDD} {
		_, err := Verify(ctx, exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: m})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", m, err)
		}
		if errors.Is(err, ErrTimeout) {
			t.Errorf("%v: cancellation conflated with ErrTimeout", m)
		}
	}
}

// TestTimeLimitStillMapsToErrTimeout pins the public contract: expiry of
// Options.TimeLimit (as opposed to caller cancellation) surfaces as the
// historical ErrTimeout for every backend.
func TestTimeLimitStillMapsToErrTimeout(t *testing.T) {
	exact := gen.ArrayMultiplier(8)
	approx := als.TruncatedMultiplier(8, 4)
	for _, m := range []Method{MethodDPLL, MethodEnum} {
		_, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: m, TimeLimit: time.Nanosecond})
		if err != nil && !errors.Is(err, ErrTimeout) {
			t.Errorf("%v: err = %v, want ErrTimeout (or instant success)", m, err)
		}
	}
}

// TestCallerDeadlineNotConflatedWithTimeout pins the other half of the
// mapErr contract: a deadline the *caller* put on the context must
// surface as context.DeadlineExceeded even when Options.TimeLimit is
// also set. (A previous version mapped any DeadlineExceeded to
// ErrTimeout whenever TimeLimit > 0, swallowing caller deadlines; the
// run's own limit is now identified by its cancellation cause.)
func TestCallerDeadlineNotConflatedWithTimeout(t *testing.T) {
	exact := gen.ArrayMultiplier(10)
	approx := als.TruncatedMultiplier(10, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := Verify(ctx, exact, approx, MetricSpec{Kind: MetricER}, Options{Method: MethodDPLL, TimeLimit: time.Hour})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Error("caller deadline conflated with the run's own ErrTimeout")
	}
}

// TestWorkersParallelMatchesSequential runs the same MED verification
// with 1 and 4 workers and asserts bit-identical Value and Count plus
// identical sub-result ordering — the determinism contract of the
// worker pool. Run under -race this also exercises the pool for data
// races.
func TestWorkersParallelMatchesSequential(t *testing.T) {
	exact := gen.RippleCarryAdder(16)
	approx := als.LowerORAdder(16, 5)
	seq, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Value.Cmp(par.Value) != 0 {
		t.Errorf("Value: parallel %v != sequential %v", par.Value, seq.Value)
	}
	if seq.Count.Cmp(par.Count) != 0 {
		t.Errorf("Count: parallel %v != sequential %v", par.Count, seq.Count)
	}
	if len(seq.Subs) != len(par.Subs) {
		t.Fatalf("sub count: %d vs %d", len(par.Subs), len(seq.Subs))
	}
	for i := range seq.Subs {
		if seq.Subs[i].Output != par.Subs[i].Output {
			t.Errorf("sub %d: order %q vs %q", i, par.Subs[i].Output, seq.Subs[i].Output)
		}
		if seq.Subs[i].Count.Cmp(par.Subs[i].Count) != 0 {
			t.Errorf("sub %d (%s): count %v vs %v", i, seq.Subs[i].Output,
				par.Subs[i].Count, seq.Subs[i].Count)
		}
	}
}

// TestTotalStatsAggregates checks Result.TotalStats equals the field
// sum over Subs.
func TestTotalStatsAggregates(t *testing.T) {
	exact := gen.RippleCarryAdder(12)
	approx := als.LowerORAdder(12, 4)
	r, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want counter.Stats
	for _, sub := range r.Subs {
		want.Add(sub.Stats)
	}
	if want != r.TotalStats {
		t.Errorf("TotalStats = %+v, want %+v", r.TotalStats, want)
	}
	if r.TotalStats.Propagations == 0 {
		t.Error("TotalStats.Propagations = 0; expected non-trivial work")
	}
}

// TestWCEContextCancel covers the SAT-probe path of VerifyWCEContext.
func TestWCEContextCancel(t *testing.T) {
	exact := gen.ArrayMultiplier(10)
	approx := als.TruncatedMultiplier(10, 5)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := VerifyWCE(ctx, exact, approx, Options{Method: MethodDPLL})
	if err == nil {
		return // solved before the cancel landed: fine
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
