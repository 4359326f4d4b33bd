package sim

// Pattern words of exhaustive enumeration: the canonical per-input
// simulation words and the tail mask of a partial block. The
// enumeration kernel, the affine-subspace tape and the tests all read
// them from here, which pins them bit-exact.

// basePatterns[i] is the canonical simulation word of input i for the 64
// patterns inside one block: bit p of basePatterns[i] equals bit i of
// the pattern index p.
var basePatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// inputWord returns the simulation word of input i (0-based) for pattern
// block `block`, under exhaustive enumeration: pattern index p (global)
// has input i equal to bit i of p. Inputs 0-5 vary within a block;
// input i >= 6 is constant per block, equal to bit i-6 of the block
// index.
func inputWord(i int, block uint64) uint64 {
	if i < 6 {
		return basePatterns[i]
	}
	if block>>(uint(i)-6)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// blockMask returns the mask of valid pattern bits in block `block` when
// only `total` patterns exist overall (total > block*64).
func blockMask(block, total uint64) uint64 {
	rem := total - block*64
	if rem >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << rem) - 1
}

// Input-variation classes over a run of batchWords consecutive blocks
// whose first block index is a multiple of batchWords. The enumeration
// kernel keys its fill strategy on them: enumConstant inputs are
// written once per enumeration, batchConstant inputs once per batch,
// and only perWord inputs once per word.
type variation int

const (
	// enumConstant inputs (0-5) encode the pattern bits inside a block:
	// their words are the basePatterns, identical in every block.
	enumConstant variation = iota
	// perWord inputs encode the low bits of the block index, which
	// change from word to word inside a batch.
	perWord
	// batchConstant inputs encode block-index bits above the batch
	// width: constant across one aligned batch, varying between batches.
	batchConstant
)

// classify reports how input i's simulation word varies across an
// aligned batch of batchWords blocks (batchWords must be a power of
// two). Bit b of the block index selects input 6+b, so inputs up to
// 6+log2(batchWords) vary within a batch and everything above is
// constant across it.
func classify(i, batchWords int) variation {
	if i < 6 {
		return enumConstant
	}
	shift := uint(i) - 6
	if uint64(batchWords)>>shift <= 1 {
		return batchConstant
	}
	return perWord
}
