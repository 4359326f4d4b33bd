package counter

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"vacsem/internal/cnf"
)

// TestSharedCacheRenamingInvariance pins the canonical-key contract that
// makes cross-sub-miter sharing work: two formulas identical up to an
// order-preserving variable renaming (the shape cnf.Encode produces when
// the same circuit region lands at different variable offsets in two
// sub-miters) must map to the same cache entries. The second solver,
// tagged with a different owner, must observe cross-sub-miter hits on
// entries the first solver stored — and both counts must stay exact.
func TestSharedCacheRenamingInvariance(t *testing.T) {
	// A benign 4-var chain with a single connected component.
	const clausesA = "p cnf 4 3\n1 2 0\n-2 3 0\n3 4 0\n"
	// The same structure under the monotone renaming v -> 2v+3
	// (1,2,3,4 -> 5,7,9,11); the unused variables are free.
	const clausesB = "p cnf 11 3\n5 7 0\n-7 9 0\n9 11 0\n"

	fa, err := cnf.ParseDIMACS(strings.NewReader(clausesA))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := cnf.ParseDIMACS(strings.NewReader(clausesB))
	if err != nil {
		t.Fatal(err)
	}

	shared := NewCache(0, 0)
	sa := New(fa, Config{Cache: shared, CacheOwner: 1})
	ca, err := sa.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteCNF(fa); ca.Uint64() != want {
		t.Fatalf("count A = %v, want %d", ca, want)
	}
	entriesAfterA := shared.Len()
	if entriesAfterA == 0 {
		t.Fatal("first solver stored nothing; test needs a cached component")
	}

	sb := New(fb, Config{Cache: shared, CacheOwner: 2})
	cb, err := sb.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteCNF(fb); cb.Uint64() != want {
		t.Fatalf("count B = %v, want %d", cb, want)
	}
	// 7 of B's 11 variables appear in no clause: same count, shifted.
	if want := new(big.Int).Lsh(ca, 7); cb.Cmp(want) != 0 {
		t.Errorf("count B = %v, want %v (count A << 7)", cb, want)
	}
	if sb.Stats().CacheCrossHits == 0 {
		t.Error("renamed formula produced no cross-owner hits; canonical keys diverged")
	}
	if got := shared.Len(); got != entriesAfterA {
		t.Errorf("renamed formula grew the cache from %d to %d entries; keys not canonical", entriesAfterA, got)
	}
	if cs := shared.Stats(); cs.CrossHits == 0 {
		t.Errorf("Cache.Stats().CrossHits = 0, want > 0 (stats = %+v)", cs)
	}
}

// TestCacheCrossOwnerTag checks the owner bookkeeping directly: a hit on
// an entry stored under the same owner is not a cross hit, one from a
// different owner is.
func TestCacheCrossOwnerTag(t *testing.T) {
	c := NewCache(0, 0)
	c.Store("k", big.NewInt(7), 1)
	if _, cross, ok := c.Lookup("k", 1); !ok || cross {
		t.Errorf("same-owner lookup: ok=%v cross=%v, want ok=true cross=false", ok, cross)
	}
	cnt, cross, ok := c.Lookup("k", 2)
	if !ok || !cross {
		t.Errorf("cross-owner lookup: ok=%v cross=%v, want ok=true cross=true", ok, cross)
	}
	if cnt.Int64() != 7 {
		t.Errorf("cached count = %v, want 7", cnt)
	}
	if _, _, ok := c.Lookup("absent", 1); ok {
		t.Error("lookup of absent key reported ok")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.CrossHits != 1 || s.Stores != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 cross / 1 store", s)
	}
}

// TestCacheEntryBoundEviction floods a tiny cache and checks the entry
// bound holds per shard (2-random eviction, not wholesale clears).
func TestCacheEntryBoundEviction(t *testing.T) {
	c := NewCache(cacheShards, 0) // one entry per shard
	for i := 0; i < 1000; i++ {
		c.Store(fmt.Sprintf("key-%d", i), big.NewInt(int64(i)), 1)
	}
	if n := c.Len(); n > cacheShards {
		t.Errorf("cache holds %d entries, bound is %d", n, cacheShards)
	}
	s := c.Stats()
	if s.Stores != 1000 {
		t.Errorf("stores = %d, want 1000", s.Stores)
	}
	if s.Evictions == 0 {
		t.Error("no evictions recorded despite a full cache")
	}
	if s.Stores-s.Evictions != uint64(s.Entries) {
		t.Errorf("stores(%d) - evictions(%d) != entries(%d)", s.Stores, s.Evictions, s.Entries)
	}
}

// TestCacheByteBound checks the approximate memory bound: steady-state
// bytes stay near the configured ceiling while counts keep caching.
func TestCacheByteBound(t *testing.T) {
	const maxBytes = 8 << 10
	c := NewCache(1<<20, maxBytes)
	for i := 0; i < 2000; i++ {
		c.Store(fmt.Sprintf("some-longer-cache-key-%08d", i), big.NewInt(int64(i)), 1)
	}
	s := c.Stats()
	if s.Bytes > 2*maxBytes {
		t.Errorf("cache holds ~%d bytes, bound is %d", s.Bytes, maxBytes)
	}
	if s.Evictions == 0 {
		t.Error("no evictions recorded despite the byte bound")
	}
}

// TestCacheDuplicateStoreKeepsFirst pins the racing-store rule: the
// first entry wins and the duplicate is dropped (both hold the same
// exact count by construction, so either would be sound).
func TestCacheDuplicateStoreKeepsFirst(t *testing.T) {
	c := NewCache(0, 0)
	c.Store("k", big.NewInt(3), 1)
	c.Store("k", big.NewInt(3), 2)
	if _, cross, _ := c.Lookup("k", 1); cross {
		t.Error("duplicate store replaced the original owner tag")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheStatsConsistentUnderConcurrency pins the all-shards-locked
// Stats snapshot: on an unbounded cache fed with unique keys, a
// consistent snapshot must satisfy Stores == Entries at every instant
// (no evictions, no duplicate stores). The old shard-by-shard read
// could observe shard i's counter after a store but miss shard j's
// entry from a racing store, tearing the totals shown on /metrics.
func TestCacheStatsConsistentUnderConcurrency(t *testing.T) {
	c := NewCache(1<<20, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Store(fmt.Sprintf("w%d-key-%d", w, i), big.NewInt(int64(i)), int32(w))
				c.Lookup(fmt.Sprintf("w%d-key-%d", w, i/2), int32(w))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		s := c.Stats()
		if s.Evictions != 0 {
			t.Fatalf("unexpected evictions (%d) on an unbounded cache", s.Evictions)
		}
		if s.Stores != uint64(s.Entries) {
			t.Fatalf("torn snapshot: stores=%d entries=%d", s.Stores, s.Entries)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCacheSnapshotLoadRoundTrip pins the persistence primitive the
// cross-request store builds on: SnapshotEntries -> LoadEntries into a
// fresh cache reproduces every (key, count) pair, counts are deep
// copies (mutating the snapshot cannot corrupt the source cache), and
// reloaded entries carry owner tag 0 so any solver's first hit counts
// as a cross hit.
func TestCacheSnapshotLoadRoundTrip(t *testing.T) {
	src := NewCache(0, 0)
	want := map[string]*big.Int{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-\x00\xff-%d", i) // binary-safe keys
		v := new(big.Int).Lsh(big.NewInt(int64(i+1)), uint(i))
		want[k] = v
		src.Store(k, new(big.Int).Set(v), 7)
	}
	snap := src.SnapshotEntries()
	if len(snap) != len(want) {
		t.Fatalf("snapshot holds %d entries, want %d", len(snap), len(want))
	}
	for i := range snap {
		snap[i].Count.Add(snap[i].Count, big.NewInt(1)) // must not reach src
	}
	for k, v := range want {
		got, _, ok := src.Lookup(k, 7)
		if !ok || got.Cmp(v) != 0 {
			t.Fatalf("snapshot mutation corrupted source entry %q: got %v want %v", k, got, v)
		}
	}
	snap = src.SnapshotEntries() // fresh, unmutated copy
	dst := NewCache(0, 0)
	dst.LoadEntries(snap)
	if dst.Len() != len(want) {
		t.Fatalf("reloaded cache holds %d entries, want %d", dst.Len(), len(want))
	}
	for k, v := range want {
		got, cross, ok := dst.Lookup(k, 7)
		if !ok {
			t.Fatalf("entry %q lost in the round trip", k)
		}
		if got.Cmp(v) != 0 {
			t.Fatalf("entry %q count = %v, want %v", k, got, v)
		}
		if !cross {
			t.Errorf("reloaded entry %q hit is not a cross hit (owner tag should be 0)", k)
		}
	}
}
