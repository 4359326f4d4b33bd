package counter

import (
	"context"
	"errors"
	"testing"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/cnf"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
	"vacsem/internal/testutil"
)

// hardFormula encodes the ER miter of a 10x10 multiplier against its
// truncated approximation: a single-output instance that keeps the
// plain DPLL engine busy for tens of seconds, far past every
// cancellation point the tests use.
func hardFormula(t *testing.T) *cnf.Formula {
	t.Helper()
	m, err := miter.ER(gen.ArrayMultiplier(10), als.TruncatedMultiplier(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	f, err := cnf.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCountCtxCancelMidSearch(t *testing.T) {
	f := hardFormula(t)
	s := New(f, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	n, err := s.Count(ctx)
	if err == nil {
		t.Skipf("instance solved in %v before the cancel landed (count %v)", time.Since(start), n)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want within one poll interval", elapsed)
	}
}

func TestCountCtxDeadline(t *testing.T) {
	f := hardFormula(t)
	s := New(f, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := s.Count(ctx)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSatisfiableCtxCancel(t *testing.T) {
	f := hardFormula(t)
	s := New(f, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Satisfiable(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled or instant answer", err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Decisions: 1, Propagations: 2, Components: 3, CacheHits: 4,
		CacheStores: 5, SimCalls: 6, SimRejected: 7, SimPatterns: 8,
		FailedLiterals: 9, Learned: 10}
	b := Stats{Decisions: 10, Propagations: 20, Components: 30, CacheHits: 40,
		CacheStores: 50, SimCalls: 60, SimRejected: 70, SimPatterns: 80,
		FailedLiterals: 90, Learned: 100}
	a.Add(b)
	want := Stats{Decisions: 11, Propagations: 22, Components: 33, CacheHits: 44,
		CacheStores: 55, SimCalls: 66, SimRejected: 77, SimPatterns: 88,
		FailedLiterals: 99, Learned: 110}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

// TestCountCtxAfterCancelReusable ensures a cancelled Count leaves
// the solver reusable: a fresh call with a live context succeeds and
// matches an untouched solver's count.
func TestCountCtxAfterCancelReusable(t *testing.T) {
	c := testutil.RandomCircuit(10, 40, 1, 5)
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = s.Count(ctx) // may or may not abort before finishing
	got, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(f, Config{}).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("count after cancelled run = %v, want %v", got, want)
	}
}
