package bdd

import (
	"context"
	"errors"
	"testing"

	"vacsem/internal/testutil"
)

// TestBuildOutputsCtxCancel cancels during a build large enough to cross
// many poll intervals and expects context.Canceled (or, if the build
// wins the race, a clean result).
func TestBuildOutputsCtxCancel(t *testing.T) {
	c := testutil.RandomCircuit(30, 3000, 4, 23)
	m := New(len(c.Inputs), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Build(ctx, c, DFSOrder(c), c.Outputs)
	if err == nil {
		t.Skip("build finished before the first poll")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSetContextCleared ensures a manager is usable again after a
// cancelled build: Build must clear its context on exit so later calls
// don't inherit a dead deadline.
func TestSetContextCleared(t *testing.T) {
	c := testutil.RandomCircuit(8, 40, 2, 31)
	m := New(len(c.Inputs), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = m.Build(ctx, c, DFSOrder(c), c.Outputs)
	if _, err := m.Build(context.Background(), c, nil, c.Outputs); err != nil {
		t.Fatalf("plain build after cancelled ctx build: %v", err)
	}
}
