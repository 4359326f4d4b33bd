package store

import (
	"bytes"
	"fmt"
	"math/big"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestConeReuseSemantics pins the guarantee-compatibility rule: exact
// entries serve every request; approximate entries serve only
// approximate requests asking for an equal-or-looser (ε, δ).
func TestConeReuseSemantics(t *testing.T) {
	s := New(Config{})
	s.StoreCone("exact", ConeEntry{Count: big.NewInt(5), Inputs: 3, Exact: true, Backend: "vacsem"})
	s.StoreCone("approx", ConeEntry{
		Count: big.NewInt(6), Inputs: 3,
		Epsilon: 0.4, Delta: 0.1, Seed: 42, Backend: "approx",
	})

	cases := []struct {
		name string
		key  string
		req  Req
		want bool
	}{
		{"exact entry, exact request", "exact", Req{Exact: true}, true},
		{"exact entry, approx request", "exact", Req{Epsilon: 0.8, Delta: 0.2}, true},
		{"approx entry, exact request", "approx", Req{Exact: true}, false},
		{"approx entry, looser request", "approx", Req{Epsilon: 0.8, Delta: 0.2}, true},
		{"approx entry, equal request", "approx", Req{Epsilon: 0.4, Delta: 0.1}, true},
		{"approx entry, tighter eps", "approx", Req{Epsilon: 0.2, Delta: 0.2}, false},
		{"approx entry, tighter delta", "approx", Req{Epsilon: 0.8, Delta: 0.05}, false},
		{"absent key", "nope", Req{Exact: true}, false},
	}
	for _, c := range cases {
		if _, ok := s.LookupCone(c.key, c.req); ok != c.want {
			t.Errorf("%s: hit=%v, want %v", c.name, ok, c.want)
		}
	}

	st := s.Stats().Cones
	if st.Stores != 2 || st.Entries != 2 {
		t.Errorf("stores=%d entries=%d, want 2/2", st.Stores, st.Entries)
	}
	// 4 hits, 3 rejects (incompatible guarantees), 1 miss (absent key).
	if st.Hits != 4 || st.Rejects != 3 || st.Misses != 1 {
		t.Errorf("hits=%d rejects=%d misses=%d, want 4/3/1", st.Hits, st.Rejects, st.Misses)
	}

	e, ok := s.LookupCone("approx", Req{Epsilon: 0.8, Delta: 0.2})
	if !ok {
		t.Fatal("approx reuse lookup missed")
	}
	// The reused entry reports its own (stronger) guarantee + seed.
	if e.Epsilon != 0.4 || e.Delta != 0.1 || e.Seed != 42 || e.Backend != "approx" {
		t.Errorf("reused entry provenance = %+v", e)
	}
}

// TestStoreConeUpgrade pins the better-entry-wins rule: a store can
// only strengthen what later requests may reuse.
func TestStoreConeUpgrade(t *testing.T) {
	s := New(Config{})
	s.StoreCone("k", ConeEntry{Count: big.NewInt(10), Inputs: 4, Epsilon: 0.8, Delta: 0.2})
	s.StoreCone("k", ConeEntry{Count: big.NewInt(11), Inputs: 4, Epsilon: 0.4, Delta: 0.2})
	if e, ok := s.LookupCone("k", Req{Epsilon: 0.4, Delta: 0.2}); !ok || e.Count.Int64() != 11 {
		t.Fatalf("tighter approx entry did not replace looser one: %+v ok=%v", e, ok)
	}
	// A looser entry must not downgrade the stored one.
	s.StoreCone("k", ConeEntry{Count: big.NewInt(12), Inputs: 4, Epsilon: 0.8, Delta: 0.2})
	if e, _ := s.LookupCone("k", Req{Epsilon: 0.8, Delta: 0.2}); e.Count.Int64() != 11 {
		t.Fatalf("looser entry downgraded the store: count=%v", e.Count)
	}
	// Exact beats any approx.
	s.StoreCone("k", ConeEntry{Count: big.NewInt(13), Inputs: 4, Exact: true})
	if e, ok := s.LookupCone("k", Req{Exact: true}); !ok || e.Count.Int64() != 13 {
		t.Fatalf("exact entry did not replace approx one: %+v ok=%v", e, ok)
	}
	// A second exact store keeps the first (equal counts by construction).
	s.StoreCone("k", ConeEntry{Count: big.NewInt(13), Inputs: 4, Exact: true, Backend: "dpll"})
	if e, _ := s.LookupCone("k", Req{Exact: true}); e.Backend == "dpll" {
		t.Error("duplicate exact store replaced the original entry")
	}
	if s.Len() != 1 {
		t.Errorf("store holds %d entries, want 1", s.Len())
	}
}

// TestConeEviction floods a tiny cone tier and checks the bound holds
// with evictions accounted.
func TestConeEviction(t *testing.T) {
	s := New(Config{MaxCones: 8})
	for i := 0; i < 100; i++ {
		s.StoreCone(fmt.Sprintf("k%d", i), ConeEntry{Count: big.NewInt(int64(i)), Inputs: 4, Exact: true})
	}
	if n := s.Len(); n > 8 {
		t.Errorf("cone tier holds %d entries, bound is 8", n)
	}
	st := s.Stats().Cones
	if st.Evictions == 0 {
		t.Error("no evictions recorded despite a full cone tier")
	}
	if st.Stores-st.Evictions != uint64(st.Entries) {
		t.Errorf("stores(%d) - evictions(%d) != entries(%d)", st.Stores, st.Evictions, st.Entries)
	}
}

// TestSnapshotLoadRoundTrip pins persistence: both tiers survive a
// snapshot -> fresh store -> load cycle with counts, provenance and
// reuse semantics intact.
func TestSnapshotLoadRoundTrip(t *testing.T) {
	src := New(Config{})
	// Binary-unsafe key bytes, mirroring the real canonical serializations.
	exKey := "cone-\x00\xff-A"
	apKey := "cone-\x01\x80-B"
	bigCnt := new(big.Int).Lsh(big.NewInt(12345), 200)
	src.StoreCone(exKey, ConeEntry{Count: bigCnt, Inputs: 250, Exact: true, Backend: "vacsem"})
	src.StoreCone(apKey, ConeEntry{
		Count: big.NewInt(77), Inputs: 9,
		Epsilon: 0.5, Delta: 0.1, Seed: 99, BestEffort: true, Backend: "approx",
	})
	src.Components().Store("comp-\x00-1", big.NewInt(3), 5)
	src.Components().Store("comp-\x00-2", new(big.Int).Lsh(big.NewInt(1), 100), 5)

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New(Config{})
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	e, ok := dst.LookupCone(exKey, Req{Exact: true})
	if !ok || e.Count.Cmp(bigCnt) != 0 || e.Inputs != 250 || e.Backend != "vacsem" {
		t.Fatalf("exact cone lost in round trip: %+v ok=%v", e, ok)
	}
	e, ok = dst.LookupCone(apKey, Req{Epsilon: 0.5, Delta: 0.1})
	if !ok || e.Count.Int64() != 77 || e.Epsilon != 0.5 || e.Delta != 0.1 ||
		e.Seed != 99 || !e.BestEffort || e.Backend != "approx" {
		t.Fatalf("approx cone provenance lost in round trip: %+v ok=%v", e, ok)
	}
	// The reloaded approx entry must still refuse an exact request.
	if _, ok := dst.LookupCone(apKey, Req{Exact: true}); ok {
		t.Error("reloaded approx entry served an exact request")
	}
	cnt, cross, ok := dst.Components().Lookup("comp-\x00-2", 5)
	if !ok || cnt.Cmp(new(big.Int).Lsh(big.NewInt(1), 100)) != 0 {
		t.Fatalf("component lost in round trip: %v ok=%v", cnt, ok)
	}
	if !cross {
		t.Error("reloaded component hit is not a cross hit (owner should be 0)")
	}
}

// TestSnapshotFileRoundTrip exercises the atomic file path.
func TestSnapshotFileRoundTrip(t *testing.T) {
	src := New(Config{})
	src.StoreCone("k", ConeEntry{Count: big.NewInt(9), Inputs: 2, Exact: true})
	path := filepath.Join(t.TempDir(), "store.json")
	if err := src.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{})
	if err := dst.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if e, ok := dst.LookupCone("k", Req{Exact: true}); !ok || e.Count.Int64() != 9 {
		t.Fatalf("file round trip lost the entry: %+v ok=%v", e, ok)
	}
}

// TestLoadRejectsCorruption: version and malformed entries abort.
func TestLoadRejectsCorruption(t *testing.T) {
	for name, doc := range map[string]string{
		"bad version": `{"version":99,"cones":[],"components":[]}`,
		"bad key":     `{"version":2,"cones":[{"key":"!!!","count":"1","inputs":1,"exact":true}],"components":[]}`,
		"bad count":   `{"version":2,"cones":[{"key":"aw==","count":"x","inputs":1,"exact":true}],"components":[]}`,
		"neg count":   `{"version":2,"cones":[{"key":"aw==","count":"-4","inputs":1,"exact":true}],"components":[]}`,
		"approx no guarantee": `{"version":2,"cones":[` +
			`{"key":"aw==","count":"4","inputs":1,"exact":false}],"components":[]}`,
		"bad component": `{"version":2,"cones":[],"components":[{"key":"aw==","count":"zzz"}]}`,
		"not json":      `hello`,
	} {
		s := New(Config{})
		if err := s.Load(bytes.NewReader([]byte(doc))); err == nil {
			t.Errorf("%s: Load accepted a corrupt snapshot", name)
		}
	}
}

// TestLoadRefusesVersion1: a well-formed version-1 snapshot holds cone
// keys that pinned session input positions — a different byte format
// from today's position-free keys — so Load refuses it whole instead of
// merging keys no current session can produce (or, worse, one that
// collides with a different cone).
func TestLoadRefusesVersion1(t *testing.T) {
	doc := `{"version":1,"cones":[{"key":"aw==","count":"3","inputs":2,"exact":true}],` +
		`"components":[{"key":"aw==","count":"5"}]}`
	s := New(Config{})
	err := s.Load(bytes.NewReader([]byte(doc)))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Load of a version-1 snapshot: err = %v, want a version error", err)
	}
	if st := s.Stats(); st.Cones.Entries != 0 {
		t.Errorf("refused snapshot merged %d cone entries", st.Cones.Entries)
	}
	if _, ok := s.LookupCone("k", Req{Exact: true}); ok {
		t.Error("refused snapshot left a cone entry")
	}
}

// TestStoreConcurrency hammers both tiers from many goroutines; run
// with -race this pins the locking discipline, and the final stats
// must balance.
func TestStoreConcurrency(t *testing.T) {
	s := New(Config{MaxCones: 1 << 16})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 300
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k%d", i%64)
				if e, ok := s.LookupCone(key, Req{Exact: true}); ok {
					if e.Count.Int64() != int64(i%64) {
						t.Errorf("cone %s count %v, want %d", key, e.Count, i%64)
					}
					continue
				}
				s.StoreCone(key, ConeEntry{Count: big.NewInt(int64(i % 64)), Inputs: 6, Exact: true})
				s.Components().Store(fmt.Sprintf("c%d-%d", w, i), big.NewInt(int64(i)), int32(w))
				s.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Cones.Entries != 64 {
		t.Errorf("cone entries = %d, want 64", st.Cones.Entries)
	}
	if got := st.Cones.Hits + st.Cones.Misses; got != workers*perWorker {
		t.Errorf("hits+misses = %d, want %d", got, workers*perWorker)
	}
}
