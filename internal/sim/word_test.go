package sim

import "testing"

// TestInputWordBitwise checks inputWord against the definition: bit p of
// input i's word for block b equals bit i of the global pattern index
// b*64+p.
func TestInputWordBitwise(t *testing.T) {
	blocks := []uint64{0, 1, 2, 3, 7, 63, 64, 1 << 20, (1 << 56) - 1}
	for i := 0; i < 62; i++ {
		for _, b := range blocks {
			w := inputWord(i, b)
			for p := uint64(0); p < 64; p += 7 {
				pattern := b*64 + p
				want := pattern >> uint(i) & 1
				got := w >> p & 1
				if got != want {
					t.Fatalf("inputWord(%d, %d) bit %d = %d, want %d", i, b, p, got, want)
				}
			}
		}
	}
}

// TestClassifyAgainstInputWord checks classify against inputWord's
// ground truth: an input is batch-constant iff its word is identical
// across every aligned batch probed, and per-word otherwise.
func TestClassifyAgainstInputWord(t *testing.T) {
	for _, batchWords := range []int{1, 2, 4, 8, 16} {
		for i := 0; i < 40; i++ {
			got := classify(i, batchWords)
			if i < 6 {
				if got != enumConstant {
					t.Fatalf("classify(%d, %d) = %v, want enumConstant", i, batchWords, got)
				}
				continue
			}
			varies := false
			for _, b0 := range []uint64{0, uint64(batchWords), 1 << 20} {
				w0 := inputWord(i, b0)
				for j := 1; j < batchWords; j++ {
					if inputWord(i, b0+uint64(j)) != w0 {
						varies = true
					}
				}
			}
			want := batchConstant
			if varies {
				want = perWord
			}
			if got != want {
				t.Fatalf("classify(%d, %d) = %v, want %v", i, batchWords, got, want)
			}
		}
	}
}

// TestBlockMaskBoundaries checks blockMask at the block edges: one valid
// bit, one bit short of a full word, and exact multiples of 64.
func TestBlockMaskBoundaries(t *testing.T) {
	cases := []struct {
		block, total, want uint64
	}{
		{0, 1, 1},
		{0, 63, (1 << 63) - 1},
		{1, 128, ^uint64(0)},
		{1, 65, 1},
		{2, 190, (1 << 62) - 1},
	}
	for _, c := range cases {
		if got := blockMask(c.block, c.total); got != c.want {
			t.Errorf("blockMask(%d, %d) = %#x, want %#x", c.block, c.total, got, c.want)
		}
	}
}
