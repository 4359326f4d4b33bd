package counter

import (
	"math/big"
	"sync"

	"vacsem/internal/obs"
)

// Cache is a concurrency-safe, sharded, bounded component-count cache.
//
// Keys are the solver-independent content keys built by Solver.cacheKey:
// a component's variables are remapped to dense local indices in sorted
// order and its residual clauses serialized as sorted local-literal
// tuples, so identical residual subformulas arising in *different*
// formulas — e.g. the sub-miters of one MED miter, which share both
// circuit copies and the subtractor — hit the same entry. Because every
// cached value is the exact model count of the canonical residual
// formula, sharing a Cache across solvers never changes any count: hits
// and misses affect speed only, so shared-cache results are bit-identical
// to private-cache results at any worker count.
//
// The cache is split into cacheShards shards selected by key hash; each
// shard is independently locked and independently bounded. When a shard
// is full, Store evicts per entry — 2-random: of two candidates drawn
// from the map's randomized iteration order, the one with fewer hits
// goes — instead of the old wholesale clear, so a long run keeps its hot
// entries. Memory is accounted approximately (key bytes + count limbs +
// fixed per-entry overhead); Stats aggregates the per-shard activity
// and internal/obs holds the high-water entry and byte gauges.
//
// Values handed to Store (and returned by Lookup) are shared across
// goroutines and must never be mutated.
type Cache struct {
	shards      [cacheShards]cacheShard
	maxPerShard int
	maxBytes    int64 // approximate per-shard byte bound, 0 = none
}

// cacheShards is the number of independently locked shards. A power of
// two; 16 keeps lock contention negligible at typical worker counts.
const cacheShards = 16

type cacheShard struct {
	mu      sync.Mutex
	m       map[string]*cacheEntry
	bytes   int64
	hits    uint64
	misses  uint64
	stores  uint64
	evicted uint64
	cross   uint64
}

type cacheEntry struct {
	cnt   *big.Int
	owner int32
	hits  uint32
}

// CacheStats is an aggregated snapshot of one Cache's activity.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Stores    uint64
	Evictions uint64
	// CrossHits counts hits on entries stored under a different owner
	// tag — with the engine's per-sub-miter tags, hits on components
	// first solved inside another sub-miter.
	CrossHits uint64
	Entries   int
	Bytes     int64 // approximate
}

// High-water registry gauges, shared by every Cache in the process (obs
// metrics are process-cumulative).
var (
	gCacheEntries = obs.Default.Gauge("counter.cache_entries_peak")
	gCacheBytes   = obs.Default.Gauge("counter.cache_bytes_peak")
)

// defaultMaxCacheEntries bounds a cache whose caller gives no entry
// bound: 4 million entries.
const defaultMaxCacheEntries = 4 << 20

// NewCache returns an empty cache bounded to maxEntries entries
// (0 = defaultMaxCacheEntries) and, when maxBytes > 0,
// approximately maxBytes of memory. Both bounds are enforced per shard.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = defaultMaxCacheEntries
	}
	c := &Cache{maxPerShard: (maxEntries + cacheShards - 1) / cacheShards}
	if c.maxPerShard < 1 {
		c.maxPerShard = 1
	}
	if maxBytes > 0 {
		c.maxBytes = (maxBytes + cacheShards - 1) / cacheShards
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// shardOf hashes the key (FNV-1a) and picks a shard by its top bits,
// which are well mixed even for keys sharing long prefixes.
func (c *Cache) shardOf(key string) *cacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[int(h>>60)&(cacheShards-1)]
}

// Lookup returns the cached count for key. cross reports that the entry
// was stored under a different owner tag (a cross-sub-miter hit). The
// returned count must not be mutated.
func (c *Cache) Lookup(key string, owner int32) (cnt *big.Int, cross, ok bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e := sh.m[key]
	if e == nil {
		sh.misses++
		sh.mu.Unlock()
		return nil, false, false
	}
	e.hits++
	sh.hits++
	cross = e.owner != owner
	if cross {
		sh.cross++
	}
	cnt = e.cnt
	sh.mu.Unlock()
	return cnt, cross, true
}

// Store inserts key -> cnt tagged with owner and returns how many
// entries were evicted to make room (so callers can distinguish cache
// growth from churn). cnt must not be mutated after the call. A racing
// store of the same key keeps the first entry — both hold the same
// exact count.
func (c *Cache) Store(key string, cnt *big.Int, owner int32) (evicted int) {
	sh := c.shardOf(key)
	sz := cacheEntryBytes(key, cnt)
	sh.mu.Lock()
	if sh.m[key] != nil {
		sh.stores++
		sh.mu.Unlock()
		return 0
	}
	for (len(sh.m) >= c.maxPerShard) ||
		(c.maxBytes > 0 && sh.bytes+sz > c.maxBytes && len(sh.m) > 0) {
		if !sh.evictOne() {
			break
		}
		evicted++
	}
	sh.m[key] = &cacheEntry{cnt: cnt, owner: owner}
	sh.bytes += sz
	sh.stores++
	sh.evicted += uint64(evicted)
	entries, bytes := len(sh.m), sh.bytes
	sh.mu.Unlock()
	// High-water gauges, scaled from the sampled shard (shards are
	// statistically balanced by the key hash).
	gCacheEntries.SetMax(int64(entries) * cacheShards)
	gCacheBytes.SetMax(bytes * cacheShards)
	return evicted
}

// evictOne removes one entry under the shard lock: of two candidates
// drawn from the map's randomized iteration order, the one with fewer
// hits goes (2-random eviction). Reports false on an empty shard.
func (sh *cacheShard) evictOne() bool {
	var k1, k2 string
	var e1, e2 *cacheEntry
	n := 0
	for k, e := range sh.m {
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
	victim, ve := k1, e1
	if e2 != nil && e2.hits < e1.hits {
		victim, ve = k2, e2
	}
	sh.bytes -= cacheEntryBytes(victim, ve.cnt)
	delete(sh.m, victim)
	return true
}

// cacheEntryBytes approximates the memory held by one entry: key bytes,
// count limbs, and a fixed allowance for the map cell, string header,
// entry struct and big.Int header.
func cacheEntryBytes(key string, cnt *big.Int) int64 {
	const overhead = 96
	return int64(len(key)) + int64(len(cnt.Bits()))*8 + overhead
}

// Len returns the current number of entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// lockAll acquires every shard lock in index order (the only place more
// than one shard lock is ever held, so the fixed order cannot deadlock)
// and returns the matching unlock.
func (c *Cache) lockAll() (unlock func()) {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	return func() {
		for i := range c.shards {
			c.shards[i].mu.Unlock()
		}
	}
}

// Stats aggregates the per-shard counters into one snapshot. All shard
// locks are held while reading, so the snapshot is consistent under
// concurrent mutation: an earlier shard-by-shard read could tear the
// totals (e.g. count a store's counter bump but miss its entry, so
// Stores - Evictions != Entries on an otherwise unbounded cache), which
// showed up as impossible numbers on the /metrics page mid-run.
func (c *Cache) Stats() CacheStats {
	unlock := c.lockAll()
	defer unlock()
	var s CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Stores += sh.stores
		s.Evictions += sh.evicted
		s.CrossHits += sh.cross
		s.Entries += len(sh.m)
		s.Bytes += sh.bytes
	}
	return s
}

// Entry is one cache entry in portable form, as produced by
// SnapshotEntries and consumed by LoadEntries (the persistence layer of
// the cross-request store).
type Entry struct {
	// Key is the canonical content key (binary-safe; callers that
	// serialize entries to text must encode it, e.g. base64).
	Key string
	// Count is the exact model count of the canonical residual formula.
	// SnapshotEntries returns a private copy; LoadEntries takes
	// ownership of the value (it must not be mutated afterwards).
	Count *big.Int
}

// SnapshotEntries returns a consistent copy of every entry in the
// cache. All shard locks are held while copying, so the result is a
// point-in-time snapshot even under concurrent mutation. Counts are
// deep-copied: mutating the returned entries never corrupts the cache.
func (c *Cache) SnapshotEntries() []Entry {
	unlock := c.lockAll()
	defer unlock()
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].m)
	}
	out := make([]Entry, 0, n)
	for i := range c.shards {
		for k, e := range c.shards[i].m {
			out = append(out, Entry{Key: k, Count: new(big.Int).Set(e.cnt)})
		}
	}
	return out
}

// LoadEntries inserts the given entries (a prior SnapshotEntries, e.g.
// reloaded from disk) under owner tag 0, so the first hit by any solver
// counts as a cross hit — which it is: the work was done in another
// process life. The usual per-shard bounds apply; entries beyond them
// evict as normal stores would. Duplicate keys keep the first entry.
func (c *Cache) LoadEntries(entries []Entry) {
	for _, e := range entries {
		if e.Count == nil {
			continue
		}
		c.Store(e.Key, e.Count, 0)
	}
}
