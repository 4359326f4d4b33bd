package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"vacsem/internal/testutil"
)

// TestCountOnesPerOutputCtxMatches pins that the chunked, pollable loop
// computes the same counts as the reference interpreter's exhaustive
// walk.
func TestCountOnesPerOutputCtxMatches(t *testing.T) {
	c := testutil.RandomCircuit(14, 120, 3, 99)
	want := interpCountOnes(c)
	got := countOnes(t, c)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output %d: %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCountOnesPerOutputCtxCancel(t *testing.T) {
	// 28 inputs: 2^22 blocks of simulation — far more than completes
	// before the cancel fires.
	c := testutil.RandomCircuit(28, 600, 2, 5)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := CompileOutputs(c).CountOnes(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want a prompt return", elapsed)
	}
}

func TestChunkBatches(t *testing.T) {
	cases := []struct {
		tapeLen    int
		numBatches uint64
		workers    int
		wantClaim  uint64
		wantPoll   uint64
	}{
		// Tiny tape over a huge range: the old fixed 128-batch cap made
		// this degenerate into 2^15 contended cursor claims; claims must
		// now scale with total work (numBatches / (workers * 16)).
		{1, 1 << 22, 8, 1 << 15, 1 << 15},
		{0, 1 << 22, 8, 1 << 15, 1 << 15}, // degenerate tape clamps to len 1
		// Huge tape: poll every batch, claim still work-scaled.
		{1 << 15, 1 << 10, 4, 16, 1},
		{1 << 30, 1 << 10, 4, 16, 1},
		// Mid-size tape, serial: claim = numBatches/16, poll = 2^18/(2^10*8).
		{1 << 10, 1 << 8, 1, 16, 32},
		// Fewer batches than claims: clamp claim (and poll) to >= 1.
		{1 << 10, 4, 8, 1, 32},
		{1, 0, 1, 1, 1 << 15},
		// workers <= 0 clamps to 1.
		{1, 1 << 10, 0, 64, 1 << 15},
	}
	for _, tc := range cases {
		claim, poll := chunkBatches(tc.tapeLen, tc.numBatches, tc.workers)
		if claim != tc.wantClaim || poll != tc.wantPoll {
			t.Errorf("chunkBatches(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.tapeLen, tc.numBatches, tc.workers, claim, poll, tc.wantClaim, tc.wantPoll)
		}
	}
}
