// Package emu is the functional SIMT emulator — the repository's
// equivalent of GPUOcelot in the paper's input collector (Section V). It
// executes a kernel program over a grid of thread blocks, maintaining a
// per-warp SIMT reconvergence stack for control divergence, and emits
// per-warp instruction traces tagged with register defs/uses and coalesced
// memory line addresses.
//
// The emulator has no timing: warps within a block run to the next barrier
// in turn. Kernels must not communicate between blocks, and barriers must
// be reached by every live warp of a block (the structured builders in
// internal/isa guarantee this for the bundled kernels).
//
// Run splits the grid into one contiguous block range per worker and
// emulates the ranges concurrently, each over a private copy-on-write
// overlay of global memory (memory.Overlay). The result is exactly the
// sequential emulator's: the ranges' warps are spliced in launch order
// and their written bytes replayed into the launch memory in range order,
// and a launch is rerun sequentially from its untouched memory when a
// range read a 64-byte chunk an earlier range wrote, when any range
// failed, or when the ranges together ran out of the record budget.
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gpumech/internal/check"
	"gpumech/internal/coalesce"
	"gpumech/internal/isa"
	"gpumech/internal/memory"
	"gpumech/internal/obs"
	"gpumech/internal/parallel"
	"gpumech/internal/trace"
)

// Launch describes one kernel launch.
type Launch struct {
	Prog            *isa.Program
	Blocks          int
	ThreadsPerBlock int // must be a positive multiple of WarpSize
	WarpSize        int // lanes per warp; 0 means 32
	SharedBytes     int // shared memory per block
	Mem             *memory.Memory
	LineBytes       int   // coalescing granularity; 0 means 128
	MaxRecs         int64 // total trace-record cap; 0 means 64M

	// SkipVerify disables the static pre-flight (check.Verify). The
	// emulator still enforces every invariant dynamically; the flag
	// exists for tests and fuzzers that deliberately feed programs the
	// checker rejects.
	SkipVerify bool

	// Workers bounds the block ranges Run emulates concurrently: 0
	// resolves through parallel.Workers (GPUMECH_WORKERS, then
	// GOMAXPROCS) and 1 runs the sequential emulator. Traces, final
	// memory and errors are identical at any count.
	Workers int

	// Stats, when non-nil, receives how Run emulated the launch.
	Stats *Stats
}

// Stats reports how Run emulated a launch.
type Stats struct {
	Workers  int      // block ranges emulated concurrently; 1 is the sequential emulator
	Fallback Fallback // why a concurrent run was discarded for a sequential one
}

// Fallback names why a concurrent emulation was discarded and the launch
// rerun sequentially.
type Fallback uint8

const (
	FallbackNone     Fallback = iota // the concurrent run stood, or none was tried
	FallbackConflict                 // a range read a chunk an earlier range wrote
	FallbackError                    // a range failed
	FallbackBudget                   // the ranges together ran out of MaxRecs
)

// Observe records s on sp, the span of the trace that produced it, as
// the workers and fallback attributes, and counts a fallback in o's
// emu.fallbacks counter. sp and o may be nil.
func (s *Stats) Observe(sp *obs.Span, o *obs.Observer) {
	sp.SetInt("workers", int64(s.Workers))
	sp.SetStr("fallback", s.Fallback.String())
	if s.Fallback != FallbackNone && o != nil && o.Metrics != nil {
		o.Counter("emu.fallbacks").Inc()
	}
}

func (f Fallback) String() string {
	switch f {
	case FallbackNone:
		return "none"
	case FallbackConflict:
		return "conflict"
	case FallbackError:
		return "error"
	case FallbackBudget:
		return "budget"
	}
	return fmt.Sprintf("fallback(%d)", int(f))
}

const defaultMaxRecs = 64 << 20

// normalize applies launch defaults and validates the launch parameters.
// It is idempotent.
func (l *Launch) normalize() error {
	if l.WarpSize == 0 {
		l.WarpSize = 32
	}
	if l.LineBytes == 0 {
		l.LineBytes = 128
	}
	if l.MaxRecs == 0 {
		l.MaxRecs = defaultMaxRecs
	}
	if l.Prog == nil {
		return fmt.Errorf("emu: nil program")
	}
	if err := l.Prog.Validate(); err != nil {
		return err
	}
	if l.Blocks <= 0 {
		return fmt.Errorf("emu: %q: Blocks must be positive, got %d", l.Prog.Name, l.Blocks)
	}
	if l.ThreadsPerBlock <= 0 || l.ThreadsPerBlock%l.WarpSize != 0 {
		return fmt.Errorf("emu: %q: ThreadsPerBlock (%d) must be a positive multiple of the warp size (%d)",
			l.Prog.Name, l.ThreadsPerBlock, l.WarpSize)
	}
	if l.WarpSize > 32 || l.WarpSize < 0 {
		return fmt.Errorf("emu: warp size %d exceeds the 32-lane mask limit", l.WarpSize)
	}
	if l.Prog.NumRegs+l.Prog.NumPreds > 255 {
		return fmt.Errorf("emu: %q: NumRegs+NumPreds (%d) exceeds the unified register namespace (255)",
			l.Prog.Name, l.Prog.NumRegs+l.Prog.NumPreds)
	}
	if l.Mem == nil {
		l.Mem = memory.New()
	}
	return nil
}

// Run executes the launch and returns the kernel trace. Records are
// encoded into per-warp column streams as they execute, so no []Rec is
// ever built and the trace can be saved or streamed directly.
func Run(l Launch) (*trace.Kernel, error) {
	if err := l.normalize(); err != nil {
		return nil, err
	}
	meta := trace.KernelMeta{
		Name:          l.Prog.Name,
		Prog:          l.Prog,
		Blocks:        l.Blocks,
		WarpsPerBlock: l.ThreadsPerBlock / l.WarpSize,
		LineBytes:     l.LineBytes,
	}
	st := Stats{Workers: min(parallel.Workers(l.Workers), l.Blocks)}
	if l.Stats != nil {
		defer func() { *l.Stats = st }()
	}
	if st.Workers > 1 {
		if err := l.preflight(); err != nil {
			return nil, err
		}
		var k *trace.Kernel
		if k, st.Fallback = runRanges(&l, meta, st.Workers); k != nil {
			return k, nil
		}
		l.SkipVerify = true // the pre-flight passed above
	}
	sink := trace.NewColKernelBuilder(meta)
	if err := runSink(l, sink); err != nil {
		return nil, err
	}
	k := sink.Kernel()
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("emu: internal error: %w", err)
	}
	return k, nil
}

// runSink executes the launch on the sequential emulator, streaming every
// trace record into sink as it executes. The records passed to Emit
// (including their Lines slices) are only valid for the duration of the
// call — sinks that retain them must copy.
func runSink(l Launch, sink trace.Sink) error {
	if err := l.normalize(); err != nil {
		return err
	}
	if err := l.preflight(); err != nil {
		return err
	}
	blk := newBlock(&l, l.ThreadsPerBlock/l.WarpSize)
	blk.mem = l.Mem
	blk.left = l.MaxRecs
	blk.sink = sink
	return blk.runBlocks(0, l.Blocks)
}

// preflight runs the static checker over the launch unless SkipVerify is
// set, rejecting programs it can prove broken (undefined registers,
// unbalanced reconvergence, divergent barriers, out-of-bounds shared
// accesses) before emulating them.
func (l *Launch) preflight() error {
	if l.SkipVerify {
		return nil
	}
	fs := check.Verify(l.Prog, check.Options{Launch: &check.LaunchInfo{
		Blocks:          l.Blocks,
		ThreadsPerBlock: l.ThreadsPerBlock,
		WarpSize:        l.WarpSize,
		SharedBytes:     l.SharedBytes,
	}})
	if err := fs.Err(); err != nil {
		return fmt.Errorf("emu: pre-flight rejected %q: %w", l.Prog.Name, err)
	}
	return nil
}

// runBlocks emulates blocks [lo, hi) in launch order into b's sink.
func (b *block) runBlocks(lo, hi int) error {
	for id := lo; id < hi; id++ {
		b.sink.BeginBlock(id)
		b.reset(id)
		if err := b.run(); err != nil {
			return err
		}
		if err := b.sink.EndBlock(); err != nil {
			return err
		}
	}
	return nil
}

// Errors that end a block range early. Neither reaches a caller: either
// makes Run rerun the launch sequentially, which reports the
// sequential emulator's own error, if any.
var (
	errBudget  = errors.New("emu: block ranges ran out of the launch's record budget")
	errAborted = errors.New("emu: block range stopped after another range failed")
)

// budgetPool is a launch's MaxRecs shared by its concurrent block ranges,
// which draw from it in chunks, so a runaway kernel stops after MaxRecs
// records in total rather than MaxRecs per range. aborted tells every
// range to stop once one has failed.
//
// A chunk is at most budgetChunk records, so ranges touch the shared
// counter once per thousands of records, and at most a quarter of one
// range's fair share, so unspent chunks held by some ranges rarely run
// the pool dry for a launch that fits in MaxRecs. When they do, the
// launch only reruns sequentially.
type budgetPool struct {
	left    atomic.Int64
	aborted atomic.Bool
	chunk   int64
}

const budgetChunk = 4096

// take draws up to p.chunk records from the pool, returning how many.
func (p *budgetPool) take() int64 {
	for {
		left := p.left.Load()
		if left <= 0 {
			return 0
		}
		n := min(p.chunk, left)
		if p.left.CompareAndSwap(left, left-n) {
			return n
		}
	}
}

// blockRange is one worker's share of a concurrent launch: blocks
// [lo, hi), emulated over a private overlay of the launch memory into a
// sink of their own.
type blockRange struct {
	lo, hi int
	ov     *memory.Overlay
	k      *trace.Kernel
	err    error
}

// runRanges emulates l's grid as workers contiguous block ranges in
// parallel. It returns the spliced kernel, with the ranges' writes
// committed to l.Mem, or nil and the reason the launch must instead run
// sequentially; l.Mem is then untouched.
func runRanges(l *Launch, meta trace.KernelMeta, workers int) (*trace.Kernel, Fallback) {
	pool := &budgetPool{chunk: max(1, min(budgetChunk, l.MaxRecs/int64(4*workers)))}
	pool.left.Store(l.MaxRecs)
	ranges := make([]blockRange, workers)
	var wg sync.WaitGroup
	for i := range ranges {
		r := &ranges[i]
		r.lo, r.hi = i*l.Blocks/workers, (i+1)*l.Blocks/workers
		// The first range follows no other, so its reads cannot be stale.
		r.ov = memory.NewOverlay(l.Mem, i > 0)
		if i == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(l, trace.NewColKernelBuilder(meta), pool)
		}()
	}
	ranges[0].run(l, trace.NewColKernelBuilder(meta), pool)
	wg.Wait()

	// The lowest failing range names the reason; ranges stopped because
	// another failed say nothing.
	for i := range ranges {
		switch err := ranges[i].err; {
		case err == nil, errors.Is(err, errAborted):
		case errors.Is(err, errBudget):
			return nil, FallbackBudget
		default:
			return nil, FallbackError
		}
	}
	for j := 1; j < len(ranges); j++ {
		for i := 0; i < j; i++ {
			if ranges[j].ov.ReadsFrom(ranges[i].ov) {
				return nil, FallbackConflict
			}
		}
	}
	k := ranges[0].k
	warps := make([]*trace.WarpTrace, 0, l.Blocks*k.WarpsPerBlock)
	for i := range ranges {
		ranges[i].ov.Commit()
		ranges[i].ov = nil
		warps = append(warps, ranges[i].k.Warps...)
	}
	k.Warps = warps
	return k, FallbackNone
}

// run emulates r's blocks over its overlay and validates their warps.
func (r *blockRange) run(l *Launch, sink *trace.ColKernelBuilder, pool *budgetPool) {
	blk := newBlock(l, l.ThreadsPerBlock/l.WarpSize)
	blk.mem = r.ov
	blk.pool = pool
	blk.sink = sink
	r.err = blk.runBlocks(r.lo, r.hi)
	if r.err == nil {
		k := sink.Kernel()
		r.err = k.ValidateWarps(r.lo*k.WarpsPerBlock, k.Warps)
		r.k = k
	}
	if r.err != nil {
		pool.aborted.Store(true)
		return
	}
	pool.left.Add(blk.left) // hand back the unused part of the last chunk
}

// stackEnt is one SIMT reconvergence stack entry.
type stackEnt struct {
	pc   int
	rpc  int // reconvergence PC; pop when pc == rpc
	mask uint32
}

type warp struct {
	id    int
	regs  []uint64 // lane-major: regs[lane*numRegs + r]
	preds []bool   // lane-major: preds[lane*numPreds + p]
	stack []stackEnt
	done  bool
	atBar bool
}

// globalMem is global memory as a block sees it: the launch memory, or a
// block range's private overlay of it.
type globalMem interface {
	Read(addr uint64, size int) uint64
	Write(addr uint64, size int, v uint64)
}

// block is the execution state of one thread block. runSink, and each
// block range, allocates one and resets it for every block it runs, so
// emulation allocates per launch, not per block or per record.
type block struct {
	l       *Launch
	id      int
	warps   []*warp
	shared  []byte
	mem     globalMem
	scratch []uint64  // address scratch for coalescing
	lineBuf []uint64  // coalesced-lines scratch, reused across records
	rec     trace.Rec // the record being emitted, reused across records
	sink    trace.Sink

	// left is the trace-record budget this block may still spend. A
	// sequential run starts it at MaxRecs; a block range starts at zero
	// and refills in chunks from the launch's shared pool.
	left int64
	pool *budgetPool
}

func newBlock(l *Launch, warpsPerBlock int) *block {
	blk := &block{
		l:       l,
		shared:  make([]byte, l.SharedBytes),
		scratch: make([]uint64, 0, l.WarpSize),
	}
	for w := 0; w < warpsPerBlock; w++ {
		blk.warps = append(blk.warps, &warp{
			id:    w,
			regs:  make([]uint64, l.WarpSize*l.Prog.NumRegs),
			preds: make([]bool, l.WarpSize*l.Prog.NumPreds),
		})
	}
	return blk
}

// reset readies b to run block id from the initial state: registers,
// predicates and shared memory zeroed, and every warp live at PC 0 with
// all lanes active.
func (b *block) reset(id int) {
	b.id = id
	clear(b.shared)
	noPop := len(b.l.Prog.Instrs) + 1 // sentinel rpc that never matches
	fullMask := uint32(1)<<b.l.WarpSize - 1
	if b.l.WarpSize == 32 {
		fullMask = ^uint32(0)
	}
	for _, w := range b.warps {
		clear(w.regs)
		clear(w.preds)
		w.stack = append(w.stack[:0], stackEnt{pc: 0, rpc: noPop, mask: fullMask})
		w.done, w.atBar = false, false
	}
}

// run executes the block to completion: each warp runs until it blocks at
// a barrier or exits; when every live warp waits at the barrier, all are
// released.
func (b *block) run() error {
	for {
		alive, waiting, progressed := 0, 0, false
		for _, w := range b.warps {
			if w.done {
				continue
			}
			alive++
			if w.atBar {
				waiting++
				continue
			}
			if err := b.runWarp(w); err != nil {
				return err
			}
			progressed = true
			if w.atBar {
				waiting++
			} else if w.done {
				alive--
			}
		}
		if alive == 0 {
			return nil
		}
		if waiting == alive {
			for _, w := range b.warps {
				w.atBar = false
			}
			continue
		}
		if !progressed {
			return check.Runtime(b.l.Prog.Name, b.id, b.stuckWarp(), b.stuckPC(), "bar",
				"no progress: %d of %d live warps waiting at a barrier the rest never reach (deadlock)",
				b.waitingWarps(), b.liveWarps())
		}
	}
}

// runWarp executes w until it exits or reaches a barrier.
func (b *block) runWarp(w *warp) error {
	prog := b.l.Prog
	numRegs := prog.NumRegs
	numPreds := prog.NumPreds
	for !w.done && !w.atBar {
		if b.left--; b.left < 0 {
			if err := b.refill(w); err != nil {
				return err
			}
		}
		top := &w.stack[len(w.stack)-1]
		if top.pc >= len(prog.Instrs) {
			w.done = true
			return nil
		}
		in := &prog.Instrs[top.pc]

		// Guard evaluation: active lanes are the stack mask filtered by
		// the guard predicate (branches use the guard as the condition).
		guarded := top.mask
		if in.Pred != isa.PredNone && in.Op != isa.OpBra && in.Op != isa.OpPNot && in.Op != isa.OpPAnd && in.Op != isa.OpSelp {
			guarded = 0
			for lane := 0; lane < b.l.WarpSize; lane++ {
				if top.mask&(1<<lane) == 0 {
					continue
				}
				p := w.preds[lane*numPreds+int(in.Pred)]
				if p != in.PredNeg {
					guarded |= 1 << lane
				}
			}
		}

		// One record, owned by the block, is refilled for every
		// instruction: a Sink may not retain it past Emit.
		rec := &b.rec
		*rec = trace.Rec{
			PC:   int32(top.pc),
			Op:   in.Op,
			Mem:  in.Mem,
			Dst:  isa.RegNone,
			Mask: guarded,
		}
		b.fillDeps(rec, in, numRegs)

		switch in.Op {
		case isa.OpBra:
			rec.Mask = top.mask
			if err := b.sink.Emit(w.id, rec); err != nil {
				return err
			}
			b.execBranch(w, in)
			b.popReconverged(w)
			continue

		case isa.OpBar:
			if err := b.sink.Emit(w.id, rec); err != nil {
				return err
			}
			top.pc++
			w.atBar = true
			b.popReconverged(w)
			continue

		case isa.OpExit:
			if err := b.sink.Emit(w.id, rec); err != nil {
				return err
			}
			w.done = true
			return nil

		case isa.OpLdG, isa.OpStG:
			if err := b.execGlobal(w, in, guarded, rec); err != nil {
				return err
			}

		case isa.OpLdS, isa.OpStS:
			if err := b.execShared(w, in, guarded); err != nil {
				return err
			}

		default:
			b.execALU(w, in, guarded)
		}

		if err := b.sink.Emit(w.id, rec); err != nil {
			return err
		}
		top.pc++
		b.popReconverged(w)
	}
	return nil
}

// refill is called when the block's record budget runs out. A sequential
// run then fails: the launch exceeds MaxRecs. A block range draws another
// chunk from the shared pool, and stops when the pool is empty or another
// range failed.
func (b *block) refill(w *warp) error {
	if b.pool == nil {
		return check.Runtime(b.l.Prog.Name, b.id, w.id, rec0PC(w), opAt(b.l.Prog, rec0PC(w)),
			"trace exceeds %d records (possible runaway loop)", b.l.MaxRecs)
	}
	if b.pool.aborted.Load() {
		return errAborted
	}
	n := b.pool.take()
	if n == 0 {
		return errBudget
	}
	b.left += n
	return nil
}

// fillDeps records the instruction's register defs and uses in the unified
// namespace (general registers, then predicates at numRegs+p).
func (b *block) fillDeps(rec *trace.Rec, in *isa.Instr, numRegs int) {
	predReg := func(p isa.PredReg) isa.Reg { return isa.Reg(numRegs + int(p)) }
	if in.Dst != isa.RegNone {
		rec.Dst = in.Dst
	} else if in.PDst != isa.PredNone {
		rec.Dst = predReg(in.PDst)
	}
	add := func(r isa.Reg) {
		if r != isa.RegNone && rec.NumSrcs < 4 {
			rec.Srcs[rec.NumSrcs] = r
			rec.NumSrcs++
		}
	}
	var buf [3]isa.Reg // SrcRegs yields at most three registers
	for _, r := range in.SrcRegs(buf[:0]) {
		add(r)
	}
	if in.Pred != isa.PredNone {
		add(predReg(in.Pred))
	}
	if in.Pred2 != isa.PredNone {
		add(predReg(in.Pred2))
	}
	for i := int(rec.NumSrcs); i < 4; i++ {
		rec.Srcs[i] = isa.RegNone
	}
}

// execBranch applies the SIMT-stack divergence discipline.
func (b *block) execBranch(w *warp, in *isa.Instr) {
	top := &w.stack[len(w.stack)-1]
	numPreds := b.l.Prog.NumPreds

	taken := top.mask
	if in.Pred != isa.PredNone {
		taken = 0
		for lane := 0; lane < b.l.WarpSize; lane++ {
			if top.mask&(1<<lane) == 0 {
				continue
			}
			p := w.preds[lane*numPreds+int(in.Pred)]
			if p != in.PredNeg {
				taken |= 1 << lane
			}
		}
	}
	notTaken := top.mask &^ taken

	switch {
	case taken == 0:
		top.pc++
	case notTaken == 0:
		top.pc = in.Target
	default:
		// Divergence: the current entry becomes the reconvergence
		// continuation; the not-taken and taken paths are pushed so that
		// the taken path executes first.
		fallPC := top.pc + 1
		top.pc = in.Reconv
		w.stack = append(w.stack,
			stackEnt{pc: fallPC, rpc: in.Reconv, mask: notTaken},
			stackEnt{pc: in.Target, rpc: in.Reconv, mask: taken},
		)
	}
}

// popReconverged pops stack entries that reached their reconvergence PC.
func (b *block) popReconverged(w *warp) {
	for len(w.stack) > 1 {
		top := &w.stack[len(w.stack)-1]
		if top.pc != top.rpc {
			return
		}
		w.stack = w.stack[:len(w.stack)-1]
	}
}

func (b *block) execGlobal(w *warp, in *isa.Instr, active uint32, rec *trace.Rec) error {
	numRegs := b.l.Prog.NumRegs
	size := in.Mem.Bytes()
	b.scratch = b.scratch[:0]
	for lane := 0; lane < b.l.WarpSize; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		base := w.regs[lane*numRegs+int(in.SrcA)]
		ea := uint64(int64(base) + in.Imm)
		b.scratch = append(b.scratch, ea)
		if in.Op == isa.OpLdG {
			w.regs[lane*numRegs+int(in.Dst)] = loadConvert(b.mem.Read(ea, size), in.Mem)
		} else {
			v := storeConvert(w.regs[lane*numRegs+int(in.SrcB)], in.Mem)
			b.mem.Write(ea, size, v)
		}
	}
	if len(b.scratch) > 0 {
		// The lines buffer is block-owned scratch: the sink copies (or
		// column-encodes) it before the next record overwrites it.
		b.lineBuf = coalesce.LinesInto(b.lineBuf, b.scratch, size, b.l.LineBytes)
		rec.Lines = b.lineBuf
	}
	return nil
}

func (b *block) execShared(w *warp, in *isa.Instr, active uint32) error {
	numRegs := b.l.Prog.NumRegs
	size := in.Mem.Bytes()
	for lane := 0; lane < b.l.WarpSize; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		base := w.regs[lane*numRegs+int(in.SrcA)]
		ea := int64(base) + in.Imm
		if ea < 0 || ea+int64(size) > int64(len(b.shared)) {
			return check.Runtime(b.l.Prog.Name, b.id, w.id, rec0PC(w), in.Op.String(),
				"lane %d shared access at %d outside %d-byte segment", lane, ea, len(b.shared))
		}
		if in.Op == isa.OpLdS {
			w.regs[lane*numRegs+int(in.Dst)] = loadConvert(readLE(b.shared[ea:ea+int64(size)]), in.Mem)
		} else {
			v := storeConvert(w.regs[lane*numRegs+int(in.SrcB)], in.Mem)
			writeLE(b.shared[ea:ea+int64(size)], v)
		}
	}
	return nil
}

func rec0PC(w *warp) int { return w.stack[len(w.stack)-1].pc }

// opAt names the opcode at pc, for error attribution.
func opAt(p *isa.Program, pc int) string {
	if pc < 0 || pc >= len(p.Instrs) {
		return ""
	}
	return p.Instrs[pc].Op.String()
}

// stuckWarp returns the ID of the first warp waiting at a barrier, or -1.
func (b *block) stuckWarp() int {
	for _, w := range b.warps {
		if w.atBar {
			return w.id
		}
	}
	return -1
}

// stuckPC returns the PC of the first barrier-waiting warp, or -1.
func (b *block) stuckPC() int {
	for _, w := range b.warps {
		if w.atBar && len(w.stack) > 0 {
			return rec0PC(w)
		}
	}
	return -1
}

func (b *block) waitingWarps() int {
	n := 0
	for _, w := range b.warps {
		if w.atBar {
			n++
		}
	}
	return n
}

func (b *block) liveWarps() int {
	n := 0
	for _, w := range b.warps {
		if !w.done {
			n++
		}
	}
	return n
}

func readLE(bs []byte) uint64 {
	var buf [8]byte
	copy(buf[:], bs)
	return binary.LittleEndian.Uint64(buf[:])
}

func writeLE(bs []byte, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	copy(bs, buf[:len(bs)])
}

// loadConvert widens a raw little-endian memory value into the 64-bit
// register representation for the given memory type.
func loadConvert(raw uint64, t isa.MemType) uint64 {
	switch t {
	case isa.MemI32:
		return uint64(int64(int32(uint32(raw))))
	case isa.MemF32:
		return math.Float64bits(float64(math.Float32frombits(uint32(raw))))
	case isa.MemU8:
		return raw & 0xFF
	case isa.MemF64, isa.MemI64:
		return raw
	}
	return raw
}

// storeConvert narrows a 64-bit register value into the raw memory
// representation for the given memory type.
func storeConvert(reg uint64, t isa.MemType) uint64 {
	switch t {
	case isa.MemI32:
		return uint64(uint32(int32(int64(reg))))
	case isa.MemF32:
		return uint64(math.Float32bits(float32(math.Float64frombits(reg))))
	case isa.MemU8:
		return reg & 0xFF
	case isa.MemF64, isa.MemI64:
		return reg
	}
	return reg
}

func (b *block) execALU(w *warp, in *isa.Instr, active uint32) {
	numRegs := b.l.Prog.NumRegs
	numPreds := b.l.Prog.NumPreds
	for lane := 0; lane < b.l.WarpSize; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		regs := w.regs[lane*numRegs : (lane+1)*numRegs]
		preds := w.preds[lane*numPreds : (lane+1)*numPreds]
		ri := func(r isa.Reg) int64 { return int64(regs[r]) }
		rf := func(r isa.Reg) float64 { return math.Float64frombits(regs[r]) }
		seti := func(v int64) { regs[in.Dst] = uint64(v) }
		setf := func(v float64) { regs[in.Dst] = math.Float64bits(v) }

		switch in.Op {
		case isa.OpNop:
		case isa.OpMovI:
			seti(in.Imm)
		case isa.OpMovF:
			setf(in.FImm)
		case isa.OpMov:
			regs[in.Dst] = regs[in.SrcA]
		case isa.OpIAdd:
			seti(ri(in.SrcA) + ri(in.SrcB))
		case isa.OpIAddI:
			seti(ri(in.SrcA) + in.Imm)
		case isa.OpISub:
			seti(ri(in.SrcA) - ri(in.SrcB))
		case isa.OpIMul:
			seti(ri(in.SrcA) * ri(in.SrcB))
		case isa.OpIMulI:
			seti(ri(in.SrcA) * in.Imm)
		case isa.OpIMad:
			seti(ri(in.SrcA)*ri(in.SrcB) + ri(in.SrcC))
		case isa.OpIMin:
			seti(min(ri(in.SrcA), ri(in.SrcB)))
		case isa.OpIMax:
			seti(max(ri(in.SrcA), ri(in.SrcB)))
		case isa.OpAnd:
			seti(ri(in.SrcA) & ri(in.SrcB))
		case isa.OpAndI:
			seti(ri(in.SrcA) & in.Imm)
		case isa.OpOr:
			seti(ri(in.SrcA) | ri(in.SrcB))
		case isa.OpXor:
			seti(ri(in.SrcA) ^ ri(in.SrcB))
		case isa.OpShl:
			seti(ri(in.SrcA) << uint(in.Imm&63))
		case isa.OpShr:
			seti(ri(in.SrcA) >> uint(in.Imm&63))
		case isa.OpRem:
			if d := ri(in.SrcB); d != 0 {
				seti(ri(in.SrcA) % d)
			} else {
				seti(0)
			}
		case isa.OpRemI:
			if in.Imm != 0 {
				seti(ri(in.SrcA) % in.Imm)
			} else {
				seti(0)
			}
		case isa.OpIDiv:
			if d := ri(in.SrcB); d != 0 {
				seti(ri(in.SrcA) / d)
			} else {
				seti(0)
			}
		case isa.OpIDivI:
			if in.Imm != 0 {
				seti(ri(in.SrcA) / in.Imm)
			} else {
				seti(0)
			}

		case isa.OpFAdd:
			setf(rf(in.SrcA) + rf(in.SrcB))
		case isa.OpFSub:
			setf(rf(in.SrcA) - rf(in.SrcB))
		case isa.OpFMul:
			setf(rf(in.SrcA) * rf(in.SrcB))
		case isa.OpFFma:
			setf(rf(in.SrcA)*rf(in.SrcB) + rf(in.SrcC))
		case isa.OpFMin:
			setf(math.Min(rf(in.SrcA), rf(in.SrcB)))
		case isa.OpFMax:
			setf(math.Max(rf(in.SrcA), rf(in.SrcB)))
		case isa.OpFNeg:
			setf(-rf(in.SrcA))
		case isa.OpFAbs:
			setf(math.Abs(rf(in.SrcA)))
		case isa.OpI2F:
			setf(float64(ri(in.SrcA)))
		case isa.OpF2I:
			seti(int64(rf(in.SrcA)))

		case isa.OpFDiv:
			setf(rf(in.SrcA) / rf(in.SrcB))
		case isa.OpFSqrt:
			setf(math.Sqrt(rf(in.SrcA)))
		case isa.OpFRcp:
			setf(1 / rf(in.SrcA))
		case isa.OpFExp:
			setf(math.Exp(rf(in.SrcA)))
		case isa.OpFLog:
			setf(math.Log(math.Abs(rf(in.SrcA)) + 1e-300))
		case isa.OpFSin:
			setf(math.Sin(rf(in.SrcA)))

		case isa.OpISetp:
			preds[in.PDst] = compareI(in.Cmp, ri(in.SrcA), ri(in.SrcB))
		case isa.OpFSetp:
			preds[in.PDst] = compareF(in.Cmp, rf(in.SrcA), rf(in.SrcB))
		case isa.OpPAnd:
			preds[in.PDst] = preds[in.Pred] && preds[in.Pred2]
		case isa.OpPNot:
			preds[in.PDst] = !preds[in.Pred]
		case isa.OpSelp:
			if preds[in.Pred] {
				regs[in.Dst] = regs[in.SrcA]
			} else {
				regs[in.Dst] = regs[in.SrcB]
			}

		case isa.OpS2R:
			tid := w.id*b.l.WarpSize + lane
			switch isa.SpecialKind(in.Imm) {
			case isa.SrTid:
				seti(int64(tid))
			case isa.SrNtid:
				seti(int64(b.l.ThreadsPerBlock))
			case isa.SrCtaid:
				seti(int64(b.id))
			case isa.SrNctaid:
				seti(int64(b.l.Blocks))
			case isa.SrLaneID:
				seti(int64(lane))
			case isa.SrWarpID:
				seti(int64(w.id))
			case isa.SrGlobalID:
				seti(int64(b.id*b.l.ThreadsPerBlock + tid))
			}
		}
	}
}

func compareI(c isa.Cmp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func compareF(c isa.Cmp, a, b float64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
