package store

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"

	"vacsem/internal/counter"
)

// Snapshot format: one JSON document holding both tiers. Cone keys and
// component keys are binary (the canonical serializations embed raw
// varints), so both are base64-encoded; counts are decimal strings
// (math/big's portable text form). The version field gates format
// changes — Load rejects versions it does not know rather than guessing.
// Version 2 keys cones by structure alone (plan's coneKey ranks inputs
// within the cone); version 1 keys pinned session input positions, a
// different byte format that must not be misread as version 2 keys.

const snapshotVersion = 2

type snapshotDoc struct {
	Version    int             `json:"version"`
	Cones      []coneJSON      `json:"cones"`
	Components []componentJSON `json:"components"`
}

type coneJSON struct {
	Key        string  `json:"key"` // base64 (std, padded)
	Count      string  `json:"count"`
	Inputs     int     `json:"inputs"`
	Exact      bool    `json:"exact"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	BestEffort bool    `json:"best_effort,omitempty"`
	Backend    string  `json:"backend,omitempty"`
}

type componentJSON struct {
	Key   string `json:"key"` // base64 (std, padded)
	Count string `json:"count"`
}

// Snapshot writes a point-in-time copy of both tiers as JSON. Each tier
// is snapshotted consistently under its own locks; the store stays
// usable (and mutable) while the JSON is marshalled and written.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.Lock()
	cones := make([]coneJSON, 0, len(s.cones))
	for k, e := range s.cones {
		cones = append(cones, coneJSON{
			Key:        base64.StdEncoding.EncodeToString([]byte(k)),
			Count:      e.Count.String(),
			Inputs:     e.Inputs,
			Exact:      e.Exact,
			Epsilon:    e.Epsilon,
			Delta:      e.Delta,
			Seed:       e.Seed,
			BestEffort: e.BestEffort,
			Backend:    e.Backend,
		})
	}
	s.mu.Unlock()

	comps := s.comps.SnapshotEntries()
	doc := snapshotDoc{
		Version:    snapshotVersion,
		Cones:      cones,
		Components: make([]componentJSON, 0, len(comps)),
	}
	for _, e := range comps {
		doc.Components = append(doc.Components, componentJSON{
			Key:   base64.StdEncoding.EncodeToString([]byte(e.Key)),
			Count: e.Count.String(),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// Load merges a prior Snapshot into the store. Existing entries are
// kept where they are at least as strong (the usual StoreCone rule);
// loaded component entries carry owner tag 0, so their first hit by any
// solver counts as a cross hit. Malformed entries abort the load with
// an error — a corrupt snapshot should be noticed, not half-applied
// silently (entries merged before the error stays merged; all are
// sound individually).
func (s *Store) Load(r io.Reader) error {
	var doc snapshotDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	if doc.Version != snapshotVersion {
		return fmt.Errorf("store: snapshot version %d, want %d", doc.Version, snapshotVersion)
	}
	for i, c := range doc.Cones {
		key, err := base64.StdEncoding.DecodeString(c.Key)
		if err != nil {
			return fmt.Errorf("store: cone %d: bad key: %w", i, err)
		}
		cnt, ok := new(big.Int).SetString(c.Count, 10)
		if !ok || cnt.Sign() < 0 {
			return fmt.Errorf("store: cone %d: bad count %q", i, c.Count)
		}
		if c.Inputs < 0 || (!c.Exact && (c.Epsilon <= 0 || c.Delta <= 0)) {
			return fmt.Errorf("store: cone %d: bad provenance (inputs=%d exact=%v eps=%g delta=%g)",
				i, c.Inputs, c.Exact, c.Epsilon, c.Delta)
		}
		s.StoreCone(string(key), ConeEntry{
			Count:      cnt,
			Inputs:     c.Inputs,
			Exact:      c.Exact,
			Epsilon:    c.Epsilon,
			Delta:      c.Delta,
			Seed:       c.Seed,
			BestEffort: c.BestEffort,
			Backend:    c.Backend,
		})
	}
	entries := make([]counter.Entry, 0, len(doc.Components))
	for i, c := range doc.Components {
		key, err := base64.StdEncoding.DecodeString(c.Key)
		if err != nil {
			return fmt.Errorf("store: component %d: bad key: %w", i, err)
		}
		cnt, ok := new(big.Int).SetString(c.Count, 10)
		if !ok || cnt.Sign() < 0 {
			return fmt.Errorf("store: component %d: bad count %q", i, c.Count)
		}
		entries = append(entries, counter.Entry{Key: string(key), Count: cnt})
	}
	s.comps.LoadEntries(entries)
	return nil
}

// SnapshotFile writes the snapshot atomically: to a temp file in the
// target directory, then rename — a crash mid-write never truncates a
// good prior snapshot.
func (s *Store) SnapshotFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := s.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile merges a snapshot file into the store.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}
