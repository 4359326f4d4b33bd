package sim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/obs"
)

// BatchWords is the number of 64-pattern words a compiled program
// evaluates per instruction dispatch: 8 words = 512 patterns. Batching
// amortizes the per-instruction dispatch over eight machine words and
// keeps each slot's working set in one or two cache lines.
const BatchWords = 8

// Metrics of the compiled kernel. Updated once per CountOnes call (not
// per block), plus once per compilation, so the always-on cost is a few
// atomic adds per enumeration. The claim/scratch counters exist because
// the parallel-scaling post-mortem (DESIGN.md §3i) showed that without
// them, cursor contention and allocation churn are invisible: the
// kernel looked "parallel" while every worker fought over tiny chunks.
var (
	mKernelPatterns = obs.Default.Counter("sim.kernel_patterns")
	mKernelBlocks   = obs.Default.Counter("sim.kernel_blocks")
	hKernelSeconds  = obs.Default.Histogram("sim.kernel_seconds", nil)
	gKernelWorkers  = obs.Default.Gauge("sim.kernel_workers")
	mCompiles       = obs.Default.Counter("sim.kernel_compiles")
	hCompileSeconds = obs.Default.Histogram("sim.kernel_compile_seconds", nil)
	// mKernelClaims counts cursor claims across all parallel
	// enumerations: claims/enumeration ≈ workers × claimsPerWorker when
	// chunk sizing is healthy, and explodes when it is not.
	mKernelClaims = obs.Default.Counter("sim.kernel_claims")
	// gClaimBatches is the high-water claim size in batches.
	gClaimBatches = obs.Default.Gauge("sim.kernel_claim_batches")
	// mScratchAllocs counts cold value-array allocations (pool misses).
	mScratchAllocs = obs.Default.Counter("sim.kernel_scratch_allocs")
	// mFusedNodes counts circuit nodes the fused lowering eliminated
	// (Buf/Not folded into complement edges, gates outside every output
	// cone dropped).
	mFusedNodes = obs.Default.Counter("sim.kernel_fused_nodes")
)

// opcode is a dense gate operation of the instruction tape. Inverted
// forms get their own opcodes so no gate ever needs a second pass, and
// opAndN/opOrN absorb complemented operands during fused lowering
// (opAndN doubles as the counter's consistency-accumulator clear).
type opcode uint8

const (
	opBuf  opcode = iota // dst = a
	opNot                // dst = ^a
	opAnd                // dst = a & b
	opNand               // dst = ^(a & b)
	opOr                 // dst = a | b
	opNor                // dst = ^(a | b)
	opXor                // dst = a ^ b
	opXnor               // dst = ^(a ^ b)
	opAndN               // dst = a &^ b
	opOrN                // dst = a | ^b
	opMux                // dst = (a & c) | (^a & b); a selects
	opMaj                // dst = majority(a, b, c)
	opOnes               // dst = all-ones (accumulator reset)
)

// instr is one tape entry. Operand fields are word offsets into the
// value array — slot index pre-multiplied by BatchWords — so evaluation
// indexes the array directly with no per-instruction multiply.
type instr struct {
	op           opcode
	dst, a, b, c int32
}

// PinnedInput is a sub-circuit input held at a constant value for every
// enumerated pattern (the counter pins inputs whose CNF variables are
// already decided).
type PinnedInput struct {
	Node int32
	Val  bool
}

// Program is a circuit (or gate subset) lowered to a flat instruction
// tape, evaluated over batches of BatchWords words. A Program is
// immutable after compilation and safe for concurrent evaluation: all
// mutable state lives in per-call value arrays drawn from an internal
// pool.
type Program struct {
	ins     []instr
	nSlots  int     // value array length = nSlots * BatchWords
	inputs  []int32 // word offset of each enumerated input, in order
	outputs []int32 // word offset of each counted output
	pool    sync.Pool
}

// NumInputs returns the number of enumerated inputs.
func (p *Program) NumInputs() int { return len(p.inputs) }

// NumOutputs returns the number of counted outputs.
func (p *Program) NumOutputs() int { return len(p.outputs) }

// Len returns the number of tape instructions (one per live gate after
// fusion, plus check instructions for component programs).
func (p *Program) Len() int { return len(p.ins) }

// initPool sets up the pool of per-call value arrays.
func (p *Program) initPool() {
	p.pool.New = func() any {
		// Slot 0 is the constant-zero slot: zeroed here and never the
		// destination of any instruction, so it stays zero across reuse.
		mScratchAllocs.Inc()
		v := make([]uint64, p.nSlots*BatchWords)
		return &v
	}
}

func (p *Program) getVals() *[]uint64  { return p.pool.Get().(*[]uint64) }
func (p *Program) putVals(v *[]uint64) { p.pool.Put(v) }

// lit is a complement-edge value reference used during fused lowering:
// the word offset of the slot holding the plain value plus a negation
// flag, resolved into fused opcodes (or one materialized opNot) at the
// point of use.
type lit struct {
	off int32
	neg bool
}

// lowerer emits fused tape instructions, AIG-style: Buf and Not nodes
// become complement edges on their consumers instead of instructions,
// two-input gates with negated operands select fused opcodes (a &^ b,
// a | ^b, NAND, NOR, XNOR), and only the rare Mux/Maj operand that
// cannot fuse materializes an explicit opNot (once per negated slot).
type lowerer struct {
	ins     []instr
	nSlots  int
	notMemo map[int32]int32 // plain slot offset -> materialized ^ offset
	fused   uint64          // nodes folded away (Buf/Not/dead gates)
}

func newLowerer(reservedSlots int) *lowerer {
	return &lowerer{nSlots: reservedSlots, notMemo: make(map[int32]int32)}
}

func (lw *lowerer) newOff() int32 {
	off := int32(lw.nSlots) * BatchWords
	lw.nSlots++
	return off
}

func (lw *lowerer) emit(op opcode, dst, a, b, c int32) {
	lw.ins = append(lw.ins, instr{op: op, dst: dst, a: a, b: b, c: c})
}

// program completes p, whose inputs and outputs are set, with the
// emitted tape and slot count, and books the compilation begun at start.
func (lw *lowerer) program(p *Program, start time.Time) *Program {
	p.ins = lw.ins
	p.nSlots = lw.nSlots
	p.initPool()
	mFusedNodes.Add(lw.fused)
	mCompiles.Add(1)
	hCompileSeconds.Observe(time.Since(start).Seconds())
	return p
}

// materialize returns a slot offset holding the literal's value as a
// plain word, emitting (and memoizing) an explicit complement when the
// literal is negated.
func (lw *lowerer) materialize(l lit) int32 {
	if !l.neg {
		return l.off
	}
	if off, ok := lw.notMemo[l.off]; ok {
		return off
	}
	dst := lw.newOff()
	lw.emit(opNot, dst, l.off, 0, 0)
	lw.notMemo[l.off] = dst
	return dst
}

// lowerGate emits the fused instruction of one gate over already-
// lowered fanin literals and returns the gate's literal.
func (lw *lowerer) lowerGate(kind circuit.Kind, fi [3]lit) (lit, error) {
	switch kind {
	case circuit.Buf:
		lw.fused++
		return fi[0], nil
	case circuit.Not:
		lw.fused++
		return lit{off: fi[0].off, neg: !fi[0].neg}, nil
	case circuit.Xor, circuit.Xnor:
		// Operand complements fold into the output parity.
		neg := kind == circuit.Xnor
		if fi[0].neg {
			neg = !neg
		}
		if fi[1].neg {
			neg = !neg
		}
		op := opXor
		if neg {
			op = opXnor
		}
		dst := lw.newOff()
		lw.emit(op, dst, fi[0].off, fi[1].off, 0)
		return lit{off: dst}, nil
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		a, b := fi[0], fi[1]
		neg := kind == circuit.Nand || kind == circuit.Nor // output complement
		isAnd := kind == circuit.And || kind == circuit.Nand
		x, y := a.off, b.off
		var op opcode
		switch {
		case !a.neg && !b.neg:
			if isAnd {
				op = opAnd
			} else {
				op = opOr
			}
			if neg {
				op++ // opAnd->opNand, opOr->opNor (adjacent opcodes)
			}
		case a.neg && b.neg:
			// De Morgan: ^a & ^b = ^(a | b), ^a | ^b = ^(a & b).
			if isAnd {
				op = opNor
				if neg {
					op = opOr
				}
			} else {
				op = opNand
				if neg {
					op = opAnd
				}
			}
		default:
			// Exactly one operand complemented: plain operand first.
			if a.neg {
				x, y = b.off, a.off
			}
			if isAnd {
				op = opAndN // p & ^n
				if neg {
					op, x, y = opOrN, y, x // ^(p & ^n) = n | ^p
				}
			} else {
				op = opOrN // p | ^n
				if neg {
					op, x, y = opAndN, y, x // ^(p | ^n) = n &^ p
				}
			}
		}
		dst := lw.newOff()
		lw.emit(op, dst, x, y, 0)
		return lit{off: dst}, nil
	case circuit.Mux:
		s, e, t := fi[0], fi[1], fi[2] // s ? t : e
		if s.neg {
			s.neg = false
			e, t = t, e
		}
		dst := lw.newOff()
		if e.neg && t.neg {
			// Mux(s, ^e, ^t) = ^Mux(s, e, t): fold into the output edge.
			lw.emit(opMux, dst, s.off, e.off, t.off)
			return lit{off: dst, neg: true}, nil
		}
		lw.emit(opMux, dst, s.off, lw.materialize(e), lw.materialize(t))
		return lit{off: dst}, nil
	case circuit.Maj:
		dst := lw.newOff()
		if fi[0].neg && fi[1].neg && fi[2].neg {
			// Maj(^a, ^b, ^c) = ^Maj(a, b, c).
			lw.emit(opMaj, dst, fi[0].off, fi[1].off, fi[2].off)
			return lit{off: dst, neg: true}, nil
		}
		lw.emit(opMaj, dst, lw.materialize(fi[0]), lw.materialize(fi[1]), lw.materialize(fi[2]))
		return lit{off: dst}, nil
	default:
		return lit{}, fmt.Errorf("sim: cannot compile %v gate", kind)
	}
}

// litTable maps node ids to their lowered literals: densely, indexed by
// node id, for a whole circuit (the zero literal, constant zero, is the
// value of Const0 and of every gate the lowering dropped), or sparsely
// for a component, whose table stays sized by the component rather
// than the host circuit.
type litTable struct {
	dense  []lit
	sparse map[int32]lit
}

func (t *litTable) get(id int32) (lit, bool) {
	if t.sparse == nil {
		return t.dense[id], true
	}
	l, ok := t.sparse[id]
	return l, ok
}

func (t *litTable) set(id int32, l lit) {
	if t.sparse == nil {
		t.dense[id] = l
	} else {
		t.sparse[id] = l
	}
}

// accOff is the word offset of a component program's consistency
// accumulator, slot 1 (slot 0 is constant zero).
const accOff = 1 * BatchWords

// lowerGates is the one gate-lowering loop: it lowers gates, in
// topological (ascending id) order, over the fanin literals in lits and
// records each gate's literal there. A fanin missing from lits must be
// the constant. When check is non-nil (a component program), each gate
// check requires to be 1 (+1) or 0 (-1) is ANDed into the accumulator,
// complement edges selecting opAnd or opAndN.
func (lw *lowerer) lowerGates(c *circuit.Circuit, gates []int32, lits *litTable, check func(int32) int8) error {
	for _, g := range gates {
		nd := &c.Nodes[g]
		var fi [3]lit
		for k, f := range nd.Fanins {
			l, ok := lits.get(int32(f))
			if !ok && c.Nodes[f].Kind != circuit.Const0 {
				// Neither a lowered gate, an input nor the constant: the
				// caller's gate set (a recovered component) missed it.
				return fmt.Errorf("sim: gate %d has unmapped fanin %d", g, f)
			}
			fi[k] = l
		}
		l, err := lw.lowerGate(nd.Kind, fi)
		if err != nil {
			return err
		}
		lits.set(g, l)
		if check == nil {
			continue
		}
		switch want := check(g); {
		case want == 0:
		case (want == 1) != l.neg: // keep patterns where the literal word is 1
			lw.emit(opAnd, accOff, accOff, l.off, 0)
		default: // keep patterns where the literal word is 0
			lw.emit(opAndN, accOff, accOff, l.off, 0)
		}
	}
	return nil
}

// lowerCircuit lowers c into lw, a fresh lowerer with slot 0 reserved
// for constant zero, over one slot per primary input, in circuit order —
// every input stays enumerated, since the pattern space is 2^NumInputs,
// whether or not a lowered gate reads it — and every gate live marks,
// or every gate when live is nil; the other gates are dropped. It
// returns the program with its inputs set and every node's literal.
func (lw *lowerer) lowerCircuit(c *circuit.Circuit, live []bool) (*Program, []lit) {
	lits := make([]lit, len(c.Nodes))
	p := &Program{inputs: make([]int32, len(c.Inputs))}
	for i, id := range c.Inputs {
		p.inputs[i] = lw.newOff()
		lits[id] = lit{off: p.inputs[i]}
	}
	gates := make([]int32, 0, len(c.Nodes)-len(c.Inputs))
	for id := range c.Nodes {
		switch {
		case !c.Nodes[id].Kind.IsGate():
		case live == nil || live[id]:
			gates = append(gates, int32(id))
		default:
			lw.fused++ // dead gate
		}
	}
	if err := lw.lowerGates(c, gates, &litTable{dense: lits}, nil); err != nil {
		panic(err) // unreachable: Validate rejects unknown kinds
	}
	return p, lits
}

// CompileOutputs lowers the output cones of a circuit to a fused
// Program: Buf/Not nodes fold into complement edges, complemented
// operands select fused opcodes, gates outside every output cone are
// dropped, and slots are compacted to the inputs and the live gates.
// The primary inputs, in circuit order, are the enumerated inputs and
// the primary outputs the counted outputs.
func CompileOutputs(c *circuit.Circuit) *Program {
	start := time.Now()
	lw := newLowerer(1)
	p, lits := lw.lowerCircuit(c, c.ConeMark(c.Outputs...))
	p.outputs = make([]int32, len(c.Outputs))
	for j, id := range c.Outputs {
		p.outputs[j] = lw.materialize(lits[id])
	}
	return lw.program(p, start)
}

// CompileComponent lowers a gate subset to a fused Program whose single
// output counts consistent patterns: gates must be in topological
// (ascending id) order, freeInputs are enumerated in the given order,
// pinned inputs hold constant values, and check(g) returns +1 when gate
// g's value is required to be 1, -1 when required to be 0, and 0 for an
// unconstrained gate. The accumulator starts all-ones per batch and is
// ANDed with each checking gate's literal (complement edges select
// opAnd vs opAndN), so the one-count of the output is exactly the
// number of consistent patterns.
//
// Slots are compacted to the live nodes only (Buf/Not gates fold into
// complement edges), so the value array is sized by the component, not
// the host circuit.
func CompileComponent(c *circuit.Circuit, gates []int32, freeInputs []int32, pinned []PinnedInput, check func(int32) int8) (*Program, error) {
	start := time.Now()
	lw := newLowerer(2) // slot 0: constant zero; slot 1: accumulator
	lits := make(map[int32]lit, len(gates)+len(freeInputs)+len(pinned))
	p := &Program{inputs: make([]int32, len(freeInputs)), outputs: []int32{accOff}}
	for i, n := range freeInputs {
		p.inputs[i] = lw.newOff()
		lits[n] = lit{off: p.inputs[i]}
	}
	for _, pi := range pinned {
		// Slot 0 is constant zero, so a pinned-1 input is its complement
		// edge — no constant-ones slot needed.
		lits[pi.Node] = lit{off: 0, neg: pi.Val}
	}
	lw.emit(opOnes, accOff, 0, 0, 0)
	if err := lw.lowerGates(c, gates, &litTable{sparse: lits}, check); err != nil {
		return nil, err
	}
	return lw.program(p, start), nil
}

// evalBatch runs the tape over all BatchWords words of the value array.
// The fixed-size array-pointer conversions eliminate bounds checks in
// the inner loops.
func (p *Program) evalBatch(v []uint64) {
	for i := range p.ins {
		ins := &p.ins[i]
		d := (*[BatchWords]uint64)(v[ins.dst:])
		a := (*[BatchWords]uint64)(v[ins.a:])
		switch ins.op {
		case opBuf:
			*d = *a
		case opNot:
			for w := 0; w < BatchWords; w++ {
				d[w] = ^a[w]
			}
		case opAnd:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = a[w] & b[w]
			}
		case opNand:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = ^(a[w] & b[w])
			}
		case opOr:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = a[w] | b[w]
			}
		case opNor:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = ^(a[w] | b[w])
			}
		case opXor:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = a[w] ^ b[w]
			}
		case opXnor:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = ^(a[w] ^ b[w])
			}
		case opAndN:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = a[w] &^ b[w]
			}
		case opOrN:
			b := (*[BatchWords]uint64)(v[ins.b:])
			for w := 0; w < BatchWords; w++ {
				d[w] = a[w] | ^b[w]
			}
		case opMux:
			b := (*[BatchWords]uint64)(v[ins.b:])
			cc := (*[BatchWords]uint64)(v[ins.c:])
			for w := 0; w < BatchWords; w++ {
				d[w] = (a[w] & cc[w]) | (^a[w] & b[w])
			}
		case opMaj:
			b := (*[BatchWords]uint64)(v[ins.b:])
			cc := (*[BatchWords]uint64)(v[ins.c:])
			for w := 0; w < BatchWords; w++ {
				d[w] = (a[w] & b[w]) | (a[w] & cc[w]) | (b[w] & cc[w])
			}
		case opOnes:
			for w := 0; w < BatchWords; w++ {
				d[w] = ^uint64(0)
			}
		}
	}
}

// eval1 runs the tape over a single word index w of the value array;
// used when only one block exists.
func (p *Program) eval1(v []uint64, w int32) {
	for i := range p.ins {
		ins := &p.ins[i]
		switch ins.op {
		case opBuf:
			v[ins.dst+w] = v[ins.a+w]
		case opNot:
			v[ins.dst+w] = ^v[ins.a+w]
		case opAnd:
			v[ins.dst+w] = v[ins.a+w] & v[ins.b+w]
		case opNand:
			v[ins.dst+w] = ^(v[ins.a+w] & v[ins.b+w])
		case opOr:
			v[ins.dst+w] = v[ins.a+w] | v[ins.b+w]
		case opNor:
			v[ins.dst+w] = ^(v[ins.a+w] | v[ins.b+w])
		case opXor:
			v[ins.dst+w] = v[ins.a+w] ^ v[ins.b+w]
		case opXnor:
			v[ins.dst+w] = ^(v[ins.a+w] ^ v[ins.b+w])
		case opAndN:
			v[ins.dst+w] = v[ins.a+w] &^ v[ins.b+w]
		case opOrN:
			v[ins.dst+w] = v[ins.a+w] | ^v[ins.b+w]
		case opMux:
			s := v[ins.a+w]
			v[ins.dst+w] = (s & v[ins.c+w]) | (^s & v[ins.b+w])
		case opMaj:
			a, b, c := v[ins.a+w], v[ins.b+w], v[ins.c+w]
			v[ins.dst+w] = (a & b) | (a & c) | (b & c)
		case opOnes:
			v[ins.dst+w] = ^uint64(0)
		}
	}
}

// fillEnumBase writes the enum-constant enumeration inputs (0-5, the
// canonical base patterns) once per value array per enumeration, so the
// per-batch fill only touches inputs that actually change. The
// constancy classes come from classify so the fill strategy stays
// pinned to the pattern-word definitions.
func (p *Program) fillEnumBase(v []uint64) {
	for i, o := range p.inputs {
		if classify(i, BatchWords) != enumConstant {
			break
		}
		dst := (*[BatchWords]uint64)(v[o:])
		w := basePatterns[i]
		for j := range dst {
			dst[j] = w
		}
	}
}

// fillEnumBatch writes the varying enumeration input words for the
// BatchWords consecutive blocks starting at block b0 (b0 is
// BatchWords-aligned). Enum-constant inputs were written once by
// fillEnumBase; batch-constant inputs get one word replicated across
// the batch; only per-word inputs are filled word by word.
func (p *Program) fillEnumBatch(v []uint64, b0 uint64) {
	for i, o := range p.inputs {
		switch classify(i, BatchWords) {
		case enumConstant:
			continue
		case batchConstant:
			dst := (*[BatchWords]uint64)(v[o:])
			w := inputWord(i, b0)
			for j := range dst {
				dst[j] = w
			}
		default:
			dst := (*[BatchWords]uint64)(v[o:])
			for j := range dst {
				dst[j] = inputWord(i, b0+uint64(j))
			}
		}
	}
}

// chunkBatches sizes the parallel kernel's two work granularities for
// an enumeration of numBatches batches over a tape of tapeLen
// instructions:
//
//   - claim is the unit of work a worker takes from the shared cursor
//     in one atomic add, scaled to the total work (~claimsPerWorker
//     claims per worker) so short tapes over large pattern ranges don't
//     degenerate into cursor-contention storms. The old fixed 128-batch
//     cap made a 1-instruction tape over 2^22 batches perform 32768
//     contended claims; work-scaled sizing keeps it at ~claimsPerWorker
//     × workers regardless of tape length.
//   - poll is the cancellation-poll interval in batches, tracking a
//     constant number of gate evaluations so heavy miters poll every
//     few batches while trivial tapes don't pay per-batch ctx checks.
//
// Claim and poll are deliberately decoupled: claims grew with total
// work, but cancellation latency must not.
func chunkBatches(tapeLen int, numBatches uint64, workers int) (claim, poll uint64) {
	const targetGateEvals = 1 << 18
	const claimsPerWorker = 16
	if tapeLen < 1 {
		tapeLen = 1
	}
	if workers < 1 {
		workers = 1
	}
	poll = targetGateEvals / uint64(tapeLen*BatchWords)
	if poll == 0 {
		poll = 1
	}
	claim = numBatches / (uint64(workers) * claimsPerWorker)
	if claim == 0 {
		claim = 1
	}
	return claim, poll
}

// CountOnes exhaustively enumerates all 2^NumInputs patterns and
// returns, per output, the number of patterns under which that output
// is 1. workers bounds the block-range parallelism: <= 0 means
// GOMAXPROCS. Per-output counts are merged by uint64 addition, so the
// result is bit-identical at any worker count. Cancellation is
// cooperative, polled every ~2^18 gate evaluations.
func (p *Program) CountOnes(ctx context.Context, workers int) ([]uint64, error) {
	n := len(p.inputs)
	if n > 62 {
		panic("sim: exhaustive enumeration beyond 62 inputs")
	}
	start := time.Now()
	total := uint64(1) << uint(n)
	blocks := (total + 63) / 64
	if blocks == 0 {
		blocks = 1
	}
	counts, err := p.countBlocks(ctx, workers, blocks, total)
	if err != nil {
		return nil, err
	}
	mKernelPatterns.Add(total)
	mKernelBlocks.Add(blocks)
	hKernelSeconds.Observe(time.Since(start).Seconds())
	return counts, nil
}

// accStride returns the per-worker row stride, in uint64 words, of the
// shared accumulator matrix: the output count rounded up to whole
// 64-byte cache lines plus one guard line, so two workers' rows can
// never share a line regardless of the allocation's alignment.
func accStride(outputs int) int {
	return (outputs+7)&^7 + 8
}

func (p *Program) countBlocks(ctx context.Context, workers int, blocks, total uint64) ([]uint64, error) {
	counts := make([]uint64, len(p.outputs))
	// Small case: under one batch of blocks. The only place a
	// partial-block mask can be needed (total < 64 means blocks == 1).
	if blocks < BatchWords {
		vp := p.getVals()
		defer p.putVals(vp)
		v := *vp
		if blocks == 1 {
			for i, o := range p.inputs {
				v[o] = inputWord(i, 0)
			}
			p.eval1(v, 0)
			mask := blockMask(0, total)
			for j, o := range p.outputs {
				counts[j] = uint64(bits.OnesCount64(v[o] & mask))
			}
		} else {
			// 2 or 4 full blocks: evaluate them all in one batch pass, one
			// block per word, instead of per-block eval1 sweeps — the tape
			// is dispatched once instead of `blocks` times.
			for i, o := range p.inputs {
				dst := (*[BatchWords]uint64)(v[o:])
				for b := range dst {
					blk := uint64(b)
					if blk >= blocks {
						blk = blocks - 1 // dead words beyond the last block
					}
					dst[b] = inputWord(i, blk)
				}
			}
			p.evalBatch(v)
			for j, o := range p.outputs {
				out := (*[BatchWords]uint64)(v[o:])
				ones := 0
				for b := uint64(0); b < blocks; b++ {
					ones += bits.OnesCount64(out[b])
				}
				counts[j] = uint64(ones)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return counts, nil
	}

	// blocks is a power of two >= BatchWords here, so it divides into
	// whole batches and every block is full (total is a multiple of 64).
	numBatches := blocks / BatchWords
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	claim, poll := chunkBatches(len(p.ins), numBatches, workers)
	if max := (numBatches + claim - 1) / claim; max > 0 && uint64(workers) > max {
		workers = int(max)
	}
	if workers < 1 {
		workers = 1
	}
	gKernelWorkers.SetMax(int64(workers))
	gClaimBatches.SetMax(int64(claim))

	// Per-worker accumulator rows live in one shared matrix, each row
	// padded to whole cache lines (accStride), so workers never write
	// the same line (no false sharing) and the merge is a single pass by
	// the coordinator after the barrier — no mutex on the hot path.
	stride := accStride(len(p.outputs))
	acc := make([]uint64, workers*stride)

	var cursor atomic.Uint64
	var mu sync.Mutex
	var firstErr error
	pollCtx := ctx.Done() != nil
	run := func(w int) {
		vp := p.getVals()
		defer p.putVals(vp)
		v := *vp
		p.fillEnumBase(v)
		local := acc[w*stride : w*stride+len(p.outputs)]
		claims := uint64(0)
		sincePoll := uint64(0)
		for {
			end := cursor.Add(claim)
			batch := end - claim
			if batch >= numBatches {
				break
			}
			claims++
			if end > numBatches {
				end = numBatches
			}
			// One mandatory poll per claim (claims are few and large)
			// guarantees a pre-cancelled ctx never completes a claim, plus
			// a countdown poll inside big claims for bounded latency.
			if pollCtx {
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					mKernelClaims.Add(claims)
					return
				}
			}
			for ; batch < end; batch++ {
				if pollCtx {
					if sincePoll++; sincePoll >= poll {
						sincePoll = 0
						if err := ctx.Err(); err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
							mKernelClaims.Add(claims)
							return
						}
					}
				}
				p.fillEnumBatch(v, batch*BatchWords)
				p.evalBatch(v)
				for j, o := range p.outputs {
					out := (*[BatchWords]uint64)(v[o:])
					ones := 0
					for w := 0; w < BatchWords; w++ {
						ones += bits.OnesCount64(out[w])
					}
					local[j] += uint64(ones)
				}
			}
		}
		mKernelClaims.Add(claims)
	}

	if workers == 1 {
		run(0)
	} else {
		// A panic left on a worker goroutine would kill the process; catch
		// it and re-raise the first one here, on the caller's goroutine.
		var (
			wg        sync.WaitGroup
			panicked  any
			panicOnce sync.Once
		)
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func(w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() { panicked = r })
					}
				}()
				run(w)
			}(i)
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for w := 0; w < workers; w++ {
		row := acc[w*stride:]
		for j := range counts {
			counts[j] += row[j]
		}
	}
	return counts, nil
}

// runVectors streams precomputed input vectors (vectors[i][w] is input
// i's word w) through the tape in BatchWords-wide batches, invoking
// gather(v, w0, n) after each batch with the value array, the base word
// index, and the number of valid words n (n < BatchWords only on the
// final partial batch).
func (p *Program) runVectors(vectors [][]uint64, words int, gather func(v []uint64, w0, n int)) {
	if len(vectors) != len(p.inputs) {
		panic(fmt.Sprintf("sim: runVectors got %d input rows, want %d", len(vectors), len(p.inputs)))
	}
	vp := p.getVals()
	defer p.putVals(vp)
	v := *vp
	for w0 := 0; w0 < words; w0 += BatchWords {
		n := words - w0
		if n > BatchWords {
			n = BatchWords
		}
		for i, o := range p.inputs {
			row := vectors[i][w0 : w0+n]
			copy(v[o:o+int32(n)], row)
		}
		if n == BatchWords {
			p.evalBatch(v)
		} else {
			for w := 0; w < n; w++ {
				p.eval1(v, int32(w))
			}
		}
		gather(v, w0, n)
	}
}
