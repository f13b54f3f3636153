package trace

import "gpumech/internal/isa"

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

// KernelMeta is the launch-level metadata ColKernelBuilder needs.
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

// ColKernelBuilder is the Sink the emulator traces into: it encodes
// records straight into columnar warps as they execute, so no []Rec is
// ever built, and the resident working set while tracing one block is
// just that block's (compressed) column streams.
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
		b.k.Warps = append(b.k.Warps, &WarpTrace{BlockID: b.blockID, WarpID: w, ColWarp: cb.Finish()})
	}
	return nil
}

// Kernel returns the accumulated trace.
func (b *ColKernelBuilder) Kernel() *Kernel { return b.k }
