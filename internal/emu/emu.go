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
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gpumech/internal/check"
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
	blk := newBlock(&l, recTemplates(l.Prog))
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
	tmpl := recTemplates(l.Prog) // read-only, shared by every range
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
			r.run(l, tmpl, trace.NewColKernelBuilder(meta), pool)
		}()
	}
	ranges[0].run(l, tmpl, trace.NewColKernelBuilder(meta), pool)
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
func (r *blockRange) run(l *Launch, tmpl []trace.Rec, sink *trace.ColKernelBuilder, pool *budgetPool) {
	blk := newBlock(l, tmpl)
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

// warp is one warp's state. Its register file is register-major: each
// register holds a value for each of 32 lanes (vec), and each predicate
// register is one mask with a bit per lane.
type warp struct {
	id    int
	regs  []uint64 // regs[r*32 + lane]
	preds []uint32 // bit lane of preds[p]
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
	tmpl    []trace.Rec // per static instruction, read-only: see recTemplates
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

func newBlock(l *Launch, tmpl []trace.Rec) *block {
	blk := &block{
		l:       l,
		tmpl:    tmpl,
		shared:  make([]byte, l.SharedBytes),
		scratch: make([]uint64, 0, l.WarpSize),
	}
	for w := 0; w < l.ThreadsPerBlock/l.WarpSize; w++ {
		blk.warps = append(blk.warps, &warp{
			id:    w,
			regs:  make([]uint64, 32*l.Prog.NumRegs),
			preds: make([]uint32, l.Prog.NumPreds),
		})
	}
	return blk
}

// recTemplates returns, for each static instruction of prog, the trace
// record every execution of it starts from: its PC, opcode, memory type,
// and register defs and uses in the unified namespace (general
// registers, then predicates at NumRegs+p). They depend on the
// instruction alone, so a launch builds them once and every block range
// copies them; an execution adds only its active mask and, for a global
// access, its coalesced lines.
func recTemplates(prog *isa.Program) []trace.Rec {
	numRegs := prog.NumRegs
	predReg := func(p isa.PredReg) isa.Reg { return isa.Reg(numRegs + int(p)) }
	tmpl := make([]trace.Rec, len(prog.Instrs))
	for pc := range prog.Instrs {
		in := &prog.Instrs[pc]
		rec := &tmpl[pc]
		*rec = trace.Rec{PC: int32(pc), Op: in.Op, Mem: in.Mem, Dst: isa.RegNone}
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
	return tmpl
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

// runWarp executes w until it exits or reaches a barrier. Each step
// issues one warp-instruction: it decides everything that depends only
// on the static instruction (its record template, whether its guard
// applies, which operation it is) once, and leaves only the per-lane
// data to the operation, which visits the active lanes in ascending
// order.
func (b *block) runWarp(w *warp) error {
	instrs := b.l.Prog.Instrs
	for !w.done && !w.atBar {
		if b.left--; b.left < 0 {
			if err := b.refill(w); err != nil {
				return err
			}
		}
		top := &w.stack[len(w.stack)-1]
		if top.pc >= len(instrs) {
			w.done = true
			return nil
		}
		in := &instrs[top.pc]

		// Active lanes are the stack mask filtered by the guard predicate
		// (branches use the guard as the condition, and pnot, pand and
		// selp read it as an operand).
		active := top.mask
		switch in.Op {
		case isa.OpBra, isa.OpPNot, isa.OpPAnd, isa.OpSelp:
		default:
			if in.Pred != isa.PredNone {
				active = predMask(w, top.mask, in.Pred, in.PredNeg)
			}
		}

		// One record, owned by the block, is refilled for every
		// instruction: a Sink may not retain it past Emit.
		rec := &b.rec
		*rec = b.tmpl[top.pc]
		rec.Mask = active

		switch in.Op {
		case isa.OpBra:
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
		}

		// An instruction no lane executes reads and writes nothing.
		if active != 0 {
			switch in.Op {
			case isa.OpLdG, isa.OpStG:
				b.execGlobal(w, in, active, rec)
			case isa.OpLdS, isa.OpStS:
				if err := b.execShared(w, in, active); err != nil {
					return err
				}
			default:
				b.execALU(w, in, active)
			}
		}

		if err := b.sink.Emit(w.id, rec); err != nil {
			return err
		}
		top.pc++
		b.popReconverged(w)
	}
	return nil
}

// predMask returns the lanes of mask whose predicate p holds (fails,
// when neg is set).
func predMask(w *warp, mask uint32, p isa.PredReg, neg bool) uint32 {
	if neg {
		return mask &^ w.preds[p]
	}
	return mask & w.preds[p]
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

// execBranch applies the SIMT-stack divergence discipline.
func (b *block) execBranch(w *warp, in *isa.Instr) {
	top := &w.stack[len(w.stack)-1]
	taken := top.mask
	if in.Pred != isa.PredNone {
		taken = predMask(w, top.mask, in.Pred, in.PredNeg)
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
