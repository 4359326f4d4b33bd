package counter

import (
	"context"
	"math/big"
	"sync"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
	"vacsem/internal/synth"
)

// medCone encodes output j of the MED miter of an 8-bit ripple-carry
// adder against LOA(8,4). Output 8 finishes in under 1024 abort checks
// (no cancellation poll); output 2 takes several thousand.
func medCone(t testing.TB, j int) *cnf.Formula {
	t.Helper()
	m, err := miter.MED(gen.RippleCarryAdder(8), als.LowerORAdder(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	m = synth.Compress(m)
	sub, _ := m.ExtractCone(j)
	f, err := cnf.Encode(synth.Compress(sub))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// registryTotals reads the registry counters the flush test compares
// against Stats.
func registryTotals() Stats {
	return Stats{
		Decisions:    mDecisions.Value(),
		Propagations: mPropagations.Value(),
		Components:   mComponents.Value(),
	}
}

// checkFlushed fails unless the registry moved by exactly want on the
// compared counters since before.
func checkFlushed(t *testing.T, before, want Stats) {
	t.Helper()
	d := registryTotals().Diff(before)
	if d.Decisions != want.Decisions || d.Propagations != want.Propagations || d.Components != want.Components {
		t.Errorf("registry delta decisions/propagations/components = %d/%d/%d, want the counted %d/%d/%d",
			d.Decisions, d.Propagations, d.Components, want.Decisions, want.Propagations, want.Components)
	}
}

// TestFlushSumsToStats pins the counter's single flush path: stats reach
// the registry at every cancellation poll and once at the end of Count,
// and the flushed deltas always sum to the final Stats. The package's
// tests do not run in parallel, so the registry moves only by what the
// counts below flush.
func TestFlushSumsToStats(t *testing.T) {
	t.Run("no poll", func(t *testing.T) {
		s := New(medCone(t, 8), Config{})
		before := registryTotals()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := s.Count(ctx); err != nil {
			t.Fatal(err)
		}
		if s.ticks >= 1024 {
			t.Fatalf("count took %d abort checks; the case wants none of its polls", s.ticks)
		}
		checkFlushed(t, before, s.stats)
	})

	t.Run("several polls", func(t *testing.T) {
		s := New(medCone(t, 2), Config{})
		before := registryTotals()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := s.Count(ctx); err != nil {
			t.Fatal(err)
		}
		if s.ticks < 3*1024 {
			t.Fatalf("count took %d abort checks; the case wants at least 3 polls", s.ticks)
		}
		checkFlushed(t, before, s.stats)
	})

	t.Run("poll flushes mid-count", func(t *testing.T) {
		s := New(medCone(t, 8), Config{})
		before := registryTotals()
		s.ctx = context.Background()
		s.stats = Stats{Decisions: 5, Propagations: 40, Components: 3}
		s.ticks = 1023
		s.checkAbort()
		checkFlushed(t, before, s.stats)
	})

	t.Run("four concurrent solvers", func(t *testing.T) {
		solvers := make([]*Solver, 4)
		for i := range solvers {
			solvers[i] = New(medCone(t, 1+i), Config{})
		}
		before := registryTotals()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		errs := make([]error, len(solvers))
		for i, s := range solvers {
			wg.Add(1)
			go func(i int, s *Solver) {
				defer wg.Done()
				_, errs[i] = s.Count(ctx)
			}(i, s)
		}
		wg.Wait()
		var sum Stats
		for i, s := range solvers {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sum.Add(s.stats)
		}
		checkFlushed(t, before, sum)
	})
}

// TestSatisfiableFlushesToRegistry: a satisfiability search (the
// worst-case-error threshold query) books its statistics like Count
// does — the registry moves by exactly its Stats and one count call,
// under a cancellable context, which polls, and under
// context.Background, which never does.
func TestSatisfiableFlushesToRegistry(t *testing.T) {
	f := miterFormulas(t, func(exact, approx *circuit.Circuit) (*circuit.Circuit, error) {
		return miter.Threshold(exact, approx, big.NewInt(14))
	}, gen.RippleCarryAdder(8), als.LowerORAdder(8, 4))[0]
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"cancellable": cancellable, "background": context.Background()} {
		t.Run(name, func(t *testing.T) {
			s := New(f, Config{})
			before, calls := registryTotals(), mCounts.Value()
			sat, err := s.Satisfiable(ctx)
			if err != nil || sat {
				t.Fatalf("Satisfiable = %v, %v; want false, nil", sat, err)
			}
			checkFlushed(t, before, s.stats)
			if d := mCounts.Value() - calls; d != 1 {
				t.Errorf("counter.count_calls moved by %d, want 1", d)
			}
		})
	}
}

// BenchmarkFlushObs measures one registry flush with a non-empty delta,
// the work checkAbort adds at every 1024-tick poll.
func BenchmarkFlushObs(b *testing.B) {
	s := &Solver{}
	for i := 0; i < b.N; i++ {
		s.stats.Decisions++
		s.stats.Propagations += 7
		s.stats.Components++
		s.flushObs()
	}
}
