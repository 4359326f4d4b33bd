// Package store is the process-global, content-addressed result store
// behind cross-request deduplication: two requests verifying the same
// circuit pair — or two metrics sharing a cone — pay for each count
// once, ever.
//
// The store has two tiers, both keyed by canonical content:
//
//   - Tier 1 (cones): one entry per counting task, keyed by the plan
//     layer's canonical cone key (internal/plan: dense node ranks,
//     inputs included, and no session input positions; exact — equal
//     keys imply isomorphic cones and therefore equal counts, whichever
//     inputs the cones read). Each entry carries the count
//     over the cone's own reachable-input space plus full provenance:
//     which backend produced it, and for approximate counts the
//     (ε, δ) guarantee, the sampling seed and the best-effort flag.
//     The engine consults this tier before dispatching a task and
//     records every non-trivial solve back into it.
//
//   - Tier 2 (components): the existing counter.Cache of canonical
//     residual-component counts, shared across every solver that runs
//     against the store. Partial work transfers even between requests
//     whose cones differ: an adder pair and a near-identical variant
//     share most residual components.
//
// Reuse rules. Exact entries are reusable by any request: an exact
// count trivially satisfies every (ε′, δ′) guarantee. An approximate
// entry with guarantee (ε, δ) is reusable only for approximate requests
// with ε′ ≥ ε and δ′ ≥ δ — the stored estimate's band is at least as
// tight as the one requested — and never for exact requests. Reused
// approximate counts report the stored (stronger) guarantee.
//
// A Store is safe for concurrent use and designed to be process-global
// and long-lived (the vacsem-serve service keeps exactly one); snapshot
// and reload (persist.go) carry its warm state across restarts.
package store

import (
	"math/big"
	"sync"

	"vacsem/internal/counter"
	"vacsem/internal/obs"
)

// Process-cumulative store metrics (every Store in the process shares
// them, like the counter cache's shard metrics; vacsem-serve runs one
// Store, so the /metrics page reads as that store's activity).
var (
	mConeHits      = obs.Default.Counter("store.cone_hits")
	mConeMisses    = obs.Default.Counter("store.cone_misses")
	mConeStores    = obs.Default.Counter("store.cone_stores")
	mConeRejects   = obs.Default.Counter("store.cone_rejects")
	mConeEvictions = obs.Default.Counter("store.cone_evictions")
	gCones         = obs.Default.Gauge("store.cones")
)

// ConeEntry is one stored cone count with its provenance. Entries are
// immutable once stored: Count must never be mutated, by the store or
// by any consumer.
type ConeEntry struct {
	// Count is the number of input patterns setting the cone's output,
	// over the cone's own reachable-input space (2^Inputs patterns).
	// Consumers rescale to their session's input space by shifting —
	// inputs outside the cone are free, so the count scales by exactly
	// 2^(sessionInputs - Inputs).
	Count *big.Int
	// Inputs is the cone's reachable primary-input count. It is pinned
	// by the cone key (the key serializes every reachable input), so
	// two entries under one key can never disagree on it.
	Inputs int
	// Exact marks a count computed exactly; Epsilon/Delta/Seed are then
	// zero. Approximate entries carry the (ε, δ) guarantee the estimate
	// was produced under and the sampling seed that drew its hash rows.
	Exact          bool
	Epsilon, Delta float64
	Seed           int64
	// BestEffort marks an approximate count whose round schedule was
	// cut short by a deadline; Delta above is the honestly widened
	// failure probability, so the reuse rule needs no special case.
	BestEffort bool
	// Backend names the engine that produced the count ("vacsem",
	// "dpll", "approx", ...) — audit provenance, not a reuse criterion.
	Backend string

	hits uint32
}

// ConeStats is a consistent snapshot of the cone tier's activity.
type ConeStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Stores uint64 `json:"stores"`
	// Rejects counts lookups that found an entry under the key but
	// could not reuse it (guarantee-incompatible: exact request over an
	// approximate entry, or a looser stored (ε, δ) than requested).
	Rejects   uint64 `json:"rejects"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// Stats is a consistent snapshot of both tiers.
type Stats struct {
	Cones      ConeStats          `json:"cones"`
	Components counter.CacheStats `json:"components"`
}

// Store is the two-tier cross-request result store.
type Store struct {
	mu       sync.Mutex
	cones    map[string]*ConeEntry
	maxCones int
	hits     uint64
	misses   uint64
	stores   uint64
	rejects  uint64
	evicted  uint64

	comps *counter.Cache
}

// Config bounds a Store. Zero values pick serving-friendly defaults.
type Config struct {
	// MaxCones bounds the cone tier (default 1 << 20 entries; cone
	// entries are small — a key, a count and a few provenance words).
	MaxCones int
	// MaxComponents and MaxComponentBytes bound the component tier (the
	// embedded counter.Cache; defaults: the cache's own 4M entries, no
	// byte bound).
	MaxComponents     int
	MaxComponentBytes int64
}

// New returns an empty store.
func New(cfg Config) *Store {
	if cfg.MaxCones <= 0 {
		cfg.MaxCones = 1 << 20
	}
	return &Store{
		cones:    make(map[string]*ConeEntry),
		maxCones: cfg.MaxCones,
		comps:    counter.NewCache(cfg.MaxComponents, cfg.MaxComponentBytes),
	}
}

// Components returns the component tier: a counter.Cache to hand to
// solvers as their shared component-count cache.
func (s *Store) Components() *counter.Cache { return s.comps }

// Req states what guarantee a lookup needs. The zero value requests an
// exact count.
type Req struct {
	// Exact requests an exact count; only exact entries match.
	Exact bool
	// Epsilon and Delta are the requested guarantee of an approximate
	// request (Exact false): entries with Epsilon ≤ Epsilon′ and
	// Delta ≤ Delta′ match, as do exact entries. Callers must resolve
	// defaults before calling (the store compares literally).
	Epsilon, Delta float64
}

// compatible reports whether e satisfies the requested guarantee.
func (r Req) compatible(e *ConeEntry) bool {
	if e.Exact {
		return true
	}
	if r.Exact {
		return false
	}
	return e.Epsilon <= r.Epsilon && e.Delta <= r.Delta
}

// LookupCone returns the stored entry under key when it satisfies req.
// An entry that exists but cannot be reused (guarantee-incompatible)
// counts as a reject and reports a miss. The returned entry is shared:
// it must not be mutated.
func (s *Store) LookupCone(key string, req Req) (*ConeEntry, bool) {
	s.mu.Lock()
	e := s.cones[key]
	switch {
	case e == nil:
		s.misses++
		s.mu.Unlock()
		mConeMisses.Inc()
		return nil, false
	case !req.compatible(e):
		s.rejects++
		s.mu.Unlock()
		mConeRejects.Inc()
		return nil, false
	}
	e.hits++
	s.hits++
	s.mu.Unlock()
	mConeHits.Inc()
	return e, true
}

// StoreCone inserts key -> e. e.Count is taken over by the store and
// must not be mutated afterwards. When the key already holds an entry,
// the better one wins: exact beats approximate, and among approximate
// entries the tighter guarantee (smaller ε, then smaller δ) wins — so a
// store can only ever strengthen what later requests may reuse.
func (s *Store) StoreCone(key string, e ConeEntry) {
	if e.Count == nil {
		return
	}
	s.mu.Lock()
	if old := s.cones[key]; old != nil && !betterThan(&e, old) {
		s.stores++
		s.mu.Unlock()
		mConeStores.Inc()
		return
	}
	evicted := 0
	for len(s.cones) >= s.maxCones {
		if !s.evictOneLocked(key) {
			break
		}
		evicted++
	}
	s.cones[key] = &e
	s.stores++
	s.evicted += uint64(evicted)
	n := len(s.cones)
	s.mu.Unlock()
	mConeStores.Inc()
	if evicted > 0 {
		mConeEvictions.Add(uint64(evicted))
	}
	gCones.Set(int64(n))
}

// betterThan reports whether a strengthens what is reusable relative to
// b: exact beats approximate; among approximate entries a strictly
// tighter ε wins, ties broken by δ.
func betterThan(a, b *ConeEntry) bool {
	if a.Exact != b.Exact {
		return a.Exact
	}
	if a.Exact {
		return false // both exact: equal counts by construction, keep the first
	}
	if a.Epsilon != b.Epsilon {
		return a.Epsilon < b.Epsilon
	}
	return a.Delta < b.Delta
}

// evictOneLocked removes one entry (2-random by hit count, like the
// component cache), never the key about to be stored. Reports false
// when nothing can go.
func (s *Store) evictOneLocked(keep string) bool {
	var k1, k2 string
	var e1, e2 *ConeEntry
	n := 0
	for k, e := range s.cones {
		if k == keep {
			continue
		}
		if n == 0 {
			k1, e1 = k, e
		} else {
			k2, e2 = k, e
			break
		}
		n++
	}
	if e1 == nil {
		return false
	}
	victim := k1
	if e2 != nil && e2.hits < e1.hits {
		victim = k2
	}
	delete(s.cones, victim)
	return true
}

// Len returns the number of cone entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cones)
}

// Stats returns a consistent snapshot of both tiers' activity. Each
// tier is internally consistent; the two tiers are read back to back
// (one lock each), which is consistent enough for reporting — no
// invariant spans the tiers.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	cs := ConeStats{
		Hits: s.hits, Misses: s.misses, Stores: s.stores,
		Rejects: s.rejects, Evictions: s.evicted,
		Entries: len(s.cones),
	}
	s.mu.Unlock()
	return Stats{Cones: cs, Components: s.comps.Stats()}
}
