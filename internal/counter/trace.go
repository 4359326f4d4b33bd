package counter

import (
	"math/big"

	"vacsem/internal/obs"
)

// Observability hooks of the solver. Everything in this file is a no-op
// (a single nil check) when no tracer is installed; the metrics-registry
// merge in flushObs is a handful of atomic adds per cancellation poll
// and one more per Count or Satisfiable call.
//
// Per-component and per-cache-operation events are sampled at the
// tracer's HotEvery interval — a component cache can see millions of
// operations per count — while controller decisions past the cheap
// clause pre-check are traced unconditionally (they are the events the
// paper's dynamic-controller claim hinges on).

// Registry handles, resolved once. Names are grouped under "counter.".
var (
	mDecisions      = obs.Default.Counter("counter.decisions")
	mPropagations   = obs.Default.Counter("counter.propagations")
	mComponents     = obs.Default.Counter("counter.components")
	mCacheHits      = obs.Default.Counter("counter.cache_hits")
	mCacheStores    = obs.Default.Counter("counter.cache_stores")
	mCacheCross     = obs.Default.Counter("counter.cache_cross_hits")
	mCacheEvictions = obs.Default.Counter("counter.cache_evictions")
	mSimCalls       = obs.Default.Counter("counter.sim_calls")
	mSimRejected    = obs.Default.Counter("counter.sim_rejected")
	mSimPatterns    = obs.Default.Counter("counter.sim_patterns")
	mFailedLiterals = obs.Default.Counter("counter.failed_literals")
	mLearnedClauses = obs.Default.Counter("counter.learned_clauses")
	mXorProps       = obs.Default.Counter("counter.xor_propagations")
	mGaussReduce    = obs.Default.Counter("counter.gauss_reductions")
	mCounts         = obs.Default.Counter("counter.count_calls")
	hSimSeconds     = obs.Default.Histogram("counter.sim_component_seconds", nil)
)

// addStatsToRegistry merges a stats delta into the registry counters.
func addStatsToRegistry(d Stats) {
	mDecisions.Add(d.Decisions)
	mPropagations.Add(d.Propagations)
	mComponents.Add(d.Components)
	mCacheHits.Add(d.CacheHits)
	mCacheStores.Add(d.CacheStores)
	mCacheCross.Add(d.CacheCrossHits)
	mCacheEvictions.Add(d.CacheEvictions)
	mSimCalls.Add(d.SimCalls)
	mSimRejected.Add(d.SimRejected)
	mSimPatterns.Add(d.SimPatterns)
	mFailedLiterals.Add(d.FailedLiterals)
	mLearnedClauses.Add(d.Learned)
	mXorProps.Add(d.XorPropagations)
	mGaussReduce.Add(d.GaussReductions)
}

// flushObs merges the stats accrued since the previous flush into the
// registry. It runs at every cancellation poll (checkAbort) and once
// more at the end of each Count or Satisfiable run; the flushed deltas
// always sum to the final Stats, so the registry totals do not depend
// on how often it ran.
func (s *Solver) flushObs() {
	d := s.stats.Diff(s.flushed)
	if d == (Stats{}) {
		return
	}
	s.flushed = s.stats
	addStatsToRegistry(d)
}

// finishObs merges the run's remaining statistics into the default
// metrics registry and, when traced, emits the final stats snapshot
// delta.
func (s *Solver) finishObs() {
	mCounts.Inc()
	s.flushObs()
	if s.tr != nil {
		if delta := s.stats.Diff(s.lastEmit); delta != (Stats{}) {
			s.lastEmit = s.stats
			obs.Event(s.evCtx, "stats", obs.Fields{"delta": delta, "cache_size": s.cacheSize(), "final": true})
		}
	}
}

// traceComponent emits a sampled per-component event plus the periodic
// stats snapshot delta. Callers check s.tr != nil first.
func (s *Solver) traceComponent(comp *component) {
	s.hotTick++
	if s.hotTick%s.tr.HotEvery() != 0 {
		return
	}
	obs.Event(s.evCtx, "component", obs.Fields{
		"seq": s.hotTick, "vars": len(comp.vars), "clauses": len(comp.clauses),
		"xors": len(comp.xors),
	})
	delta := s.stats.Diff(s.lastEmit)
	s.lastEmit = s.stats
	obs.Event(s.evCtx, "stats", obs.Fields{"delta": delta, "cache_size": s.cacheSize()})
}

// cacheSize reports the entry count of the active cache (shared caches
// include other solvers' entries). Only called from sampled trace paths
// — Cache.Len takes every shard lock.
func (s *Solver) cacheSize() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// traceCache emits a sampled cache event (op is "hit" or "store").
// Callers check s.tr != nil first.
func (s *Solver) traceCache(op string) {
	s.cacheTick++
	if s.cacheTick%s.tr.HotEvery() != 0 {
		return
	}
	obs.Event(s.evCtx, "cache", obs.Fields{
		"op": op, "size": s.cacheSize(),
		"hits": s.stats.CacheHits, "stores": s.stats.CacheStores,
		"evictions": s.stats.CacheEvictions, "cross_hits": s.stats.CacheCrossHits,
	})
}

// rejectSim records a controller rejection. Rejections at the cheap
// clause-count pre-check fire once per candidate component, so they are
// sampled like component events; structural and density rejections are
// traced unconditionally with the score that drove the choice.
func (s *Solver) rejectSim(sampled bool, reason string, gates, k int, density float64) (*big.Int, bool) {
	s.stats.SimRejected++
	if s.tr == nil {
		return nil, false
	}
	if sampled {
		s.hotTick++ // share the component sampling budget
		if s.hotTick%s.tr.HotEvery() != 0 {
			return nil, false
		}
	}
	obs.Event(s.evCtx, "sim_decision", obs.Fields{
		"accepted": false, "reason": reason,
		"gates": gates, "k": k, "density": density,
	})
	return nil, false
}
