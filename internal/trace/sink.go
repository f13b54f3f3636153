package trace

import (
	"fmt"

	"gpumech/internal/isa"
)

// Sink receives trace records as the emulator executes them. Warps inside
// a block interleave at barriers, so records arrive grouped by block but
// tagged with the warp index; a sink keeps per-warp state for the current
// block only. The Rec passed to Emit — including its Lines slice, which
// points into the emulator's coalescing scratch buffer — is valid only for
// the duration of the call.
type Sink interface {
	// BeginBlock starts block b (blocks arrive in launch order, 0..N-1).
	BeginBlock(b int)
	// Emit appends one executed record of warp w (within the block).
	Emit(w int, r *Rec) error
	// EndBlock seals the block begun by the last BeginBlock.
	EndBlock() error
}

// KernelMeta is the launch-level metadata a kernel-building sink needs.
type KernelMeta struct {
	Name          string
	Prog          *isa.Program
	Blocks        int
	WarpsPerBlock int
	LineBytes     int
}

func (m KernelMeta) kernel() *Kernel {
	return &Kernel{
		Name:          m.Name,
		Prog:          m.Prog,
		Blocks:        m.Blocks,
		WarpsPerBlock: m.WarpsPerBlock,
		LineBytes:     m.LineBytes,
	}
}

// lineArena hands out stable []uint64 slices from chunked backing arrays,
// replacing the one-allocation-per-memory-record cost of cloning Lines.
// Chunks are never grown in place, so previously returned slices stay
// valid.
type lineArena struct {
	chunk []uint64
}

const lineArenaChunk = 8192

func (a *lineArena) clone(lines []uint64) []uint64 {
	n := len(lines)
	if cap(a.chunk)-len(a.chunk) < n {
		size := lineArenaChunk
		if n > size {
			size = n
		}
		a.chunk = make([]uint64, 0, size)
	}
	start := len(a.chunk)
	a.chunk = append(a.chunk, lines...)
	return a.chunk[start : start+n : start+n]
}

// RowBuilder is a Sink that accumulates a row-layout (*Kernel with []Rec
// warps) trace, backing all Lines slices with a shared arena.
type RowBuilder struct {
	k     *Kernel
	cur   []*WarpTrace
	arena lineArena
}

// NewRowBuilder returns a sink that builds a row-layout kernel.
func NewRowBuilder(m KernelMeta) *RowBuilder {
	return &RowBuilder{k: m.kernel()}
}

// BeginBlock implements Sink.
func (b *RowBuilder) BeginBlock(blk int) {
	b.cur = b.cur[:0]
	for w := 0; w < b.k.WarpsPerBlock; w++ {
		wt := &WarpTrace{BlockID: blk, WarpID: w}
		b.cur = append(b.cur, wt)
		b.k.Warps = append(b.k.Warps, wt)
	}
}

// Emit implements Sink.
func (b *RowBuilder) Emit(w int, r *Rec) error {
	rec := *r
	if len(r.Lines) > 0 {
		rec.Lines = b.arena.clone(r.Lines)
	}
	b.cur[w].Recs = append(b.cur[w].Recs, rec)
	return nil
}

// EndBlock implements Sink.
func (b *RowBuilder) EndBlock() error { return nil }

// Kernel returns the accumulated trace.
func (b *RowBuilder) Kernel() *Kernel { return b.k }

// ColKernelBuilder is a Sink that encodes records straight into columnar
// warps as they execute — the serialize path never holds a []Rec, and the
// resident working set while tracing one block is just that block's
// (compressed) column streams.
type ColKernelBuilder struct {
	k        *Kernel
	blockID  int
	builders []*ColBuilder
}

// NewColKernelBuilder returns a sink that builds a columnar kernel.
func NewColKernelBuilder(m KernelMeta) *ColKernelBuilder {
	return &ColKernelBuilder{k: m.kernel()}
}

// BeginBlock implements Sink. The per-warp builders are reused from
// block to block: EndBlock packs each warp's streams into the finished
// warp and leaves the builder empty, with its scratch capacity.
func (b *ColKernelBuilder) BeginBlock(blk int) {
	b.blockID = blk
	for len(b.builders) < b.k.WarpsPerBlock {
		b.builders = append(b.builders, &ColBuilder{})
	}
}

// Emit implements Sink.
func (b *ColKernelBuilder) Emit(w int, r *Rec) error {
	return b.builders[w].Append(r)
}

// EndBlock implements Sink.
func (b *ColKernelBuilder) EndBlock() error {
	for w, cb := range b.builders {
		b.k.Warps = append(b.k.Warps, NewColWarpTrace(b.blockID, w, cb.Finish()))
	}
	return nil
}

// Kernel returns the accumulated columnar trace.
func (b *ColKernelBuilder) Kernel() *Kernel { return b.k }

// NewColWarpTrace wraps a columnar warp as a WarpTrace.
func NewColWarpTrace(blockID, warpID int, cw *ColWarp) *WarpTrace {
	return &WarpTrace{BlockID: blockID, WarpID: warpID, col: cw}
}

// Col returns the warp's columnar storage, or nil if it is row-backed.
func (w *WarpTrace) Col() *ColWarp { return w.col }

// Rows returns the warp's records in row layout, decoding columnar
// storage on demand. Row-backed warps return the backing slice.
func (w *WarpTrace) Rows() ([]Rec, error) {
	if w.col == nil {
		return w.Recs, nil
	}
	return w.col.DecodeColumns()
}

// Columns returns the warp's columnar form, encoding row storage on
// demand. Columnar-backed warps return their storage without copying.
func (w *WarpTrace) Columns() (*ColWarp, error) {
	if w.col != nil {
		return w.col, nil
	}
	return EncodeColumns(w.Recs)
}

// rowKernel returns a kernel whose warps are all row-backed: k itself if
// none are columnar, otherwise a shallow copy with columnar warps decoded
// (the legacy gob encoder serializes the Recs field, which columnar warps
// leave empty). k is never mutated.
func (k *Kernel) rowKernel() (*Kernel, error) {
	colWarps := false
	for _, w := range k.Warps {
		if w.col != nil {
			colWarps = true
			break
		}
	}
	if !colWarps {
		return k, nil
	}
	kk := *k
	kk.Warps = make([]*WarpTrace, len(k.Warps))
	for i, w := range k.Warps {
		if w.col == nil {
			kk.Warps[i] = w
			continue
		}
		recs, err := w.col.DecodeColumns()
		if err != nil {
			return nil, fmt.Errorf("trace: kernel %q warp %d: %w", k.Name, i, err)
		}
		kk.Warps[i] = &WarpTrace{BlockID: w.BlockID, WarpID: w.WarpID, Recs: recs}
	}
	return &kk, nil
}
