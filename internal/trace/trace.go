// Package trace defines the per-warp dynamic instruction traces produced
// by the functional emulator (internal/emu) and consumed by the cache
// simulator, the timing oracle, and the GPUMech interval algorithm.
//
// A trace record carries the static PC, opcode, register defs/uses (for
// dependency analysis), the active lane mask, and — for global memory
// instructions — the coalesced line addresses. This mirrors the paper's
// input collector, which tags GPUOcelot traces with dependency information
// and memory addresses (Section V).
package trace

import (
	"fmt"
	"math/bits"

	"gpumech/internal/isa"
)

// Rec is one executed warp-instruction.
type Rec struct {
	PC  int32
	Op  isa.Op
	Mem isa.MemType
	// Dst and Srcs use a unified register namespace: indices below the
	// program's NumRegs are general registers; indices at NumRegs+p denote
	// predicate register p. This lets dependency tracking and
	// scoreboarding treat setp->branch chains like ordinary RAW hazards.
	Dst     isa.Reg    // isa.RegNone if the instruction defines no register
	Srcs    [4]isa.Reg // source registers, isa.RegNone-padded
	NumSrcs uint8
	Mask    uint32   // active lane mask at issue
	Lines   []uint64 // coalesced global-memory line addresses (sorted)
}

// ActiveLanes returns the number of active lanes.
func (r *Rec) ActiveLanes() int { return bits.OnesCount32(r.Mask) }

// IsGlobalMem reports whether the record is a global load or store.
func (r *Rec) IsGlobalMem() bool { return r.Op.IsGlobal() }

// NumReqs returns the number of coalesced memory requests the instruction
// issues (0 for non-global-memory instructions).
func (r *Rec) NumReqs() int { return len(r.Lines) }

// SrcRegs returns the source registers as a slice.
func (r *Rec) SrcRegs() []isa.Reg { return r.Srcs[:r.NumSrcs] }

// WarpTrace is the full dynamic instruction stream of one warp, held as
// the column streams of its embedded ColWarp, which also supplies Insts,
// the memory counters and Cursor. The zero value is an empty warp.
type WarpTrace struct {
	BlockID int // block index within the grid
	WarpID  int // warp index within the block
	ColWarp
}

// Kernel is the complete trace of one kernel launch.
type Kernel struct {
	Name          string
	Prog          *isa.Program
	Blocks        int
	WarpsPerBlock int
	LineBytes     int // coalescing granularity used when tracing
	Warps         []*WarpTrace
}

// WarpsOfBlock returns the warp traces belonging to block b.
func (k *Kernel) WarpsOfBlock(b int) []*WarpTrace {
	lo := b * k.WarpsPerBlock
	return k.Warps[lo : lo+k.WarpsPerBlock]
}

// TotalInsts returns the total executed warp-instructions across all warps.
func (k *Kernel) TotalInsts() int64 {
	var n int64
	for _, w := range k.Warps {
		n += int64(w.Insts())
	}
	return n
}

// Validate checks internal consistency of the trace. Beyond structural
// checks (warp ids, PC range, global-memory records carrying lines), it
// enforces the record normal form the columnar encoding relies on: at
// most 4 sources with RegNone padding, Lines only on global-memory
// records, and strictly ascending line addresses. The emulator always
// produces this form; Validate pins it for traces decoded from disk.
func (k *Kernel) Validate() error {
	if k.Prog == nil {
		return fmt.Errorf("trace: kernel %q has no program", k.Name)
	}
	if len(k.Warps) != k.Blocks*k.WarpsPerBlock {
		return fmt.Errorf("trace: kernel %q has %d warps, want %d blocks x %d warps",
			k.Name, len(k.Warps), k.Blocks, k.WarpsPerBlock)
	}
	return k.ValidateWarps(0, k.Warps)
}

// ValidateWarps applies Validate's per-warp checks to ws as warps first,
// first+1, ... of k. The emulator validates each block range's warps with
// it as the range finishes, instead of re-reading the whole trace. One
// cursor decodes every warp in turn.
func (k *Kernel) ValidateWarps(first int, ws []*WarpTrace) error {
	var cur ColCursor
	for j, w := range ws {
		cur.ResetTo(&w.ColWarp)
		if err := k.validateWarp(first+j, w, &cur); err != nil {
			return err
		}
	}
	return nil
}

// validateWarp checks w, read through cur, as warp i of k (block
// i/WarpsPerBlock).
func (k *Kernel) validateWarp(i int, w *WarpTrace, cur *ColCursor) error {
	if w.BlockID != i/k.WarpsPerBlock || w.WarpID != i%k.WarpsPerBlock {
		return fmt.Errorf("trace: kernel %q warp %d has ids (%d,%d), want (%d,%d)",
			k.Name, i, w.BlockID, w.WarpID, i/k.WarpsPerBlock, i%k.WarpsPerBlock)
	}
	var insts, memInsts, memReqs int
	for cur.Next() {
		r := cur.Rec()
		j := insts
		insts++
		if int(r.PC) >= len(k.Prog.Instrs) || r.PC < 0 {
			return fmt.Errorf("trace: kernel %q warp %d rec %d: pc %d out of range", k.Name, i, j, r.PC)
		}
		if r.NumSrcs > uint8(len(r.Srcs)) {
			return fmt.Errorf("trace: kernel %q warp %d rec %d: %d sources exceed capacity", k.Name, i, j, r.NumSrcs)
		}
		for s := int(r.NumSrcs); s < len(r.Srcs); s++ {
			if r.Srcs[s] != isa.RegNone {
				return fmt.Errorf("trace: kernel %q warp %d rec %d: source slot %d past NumSrcs not RegNone", k.Name, i, j, s)
			}
		}
		if r.IsGlobalMem() {
			if r.Mask != 0 && len(r.Lines) == 0 {
				return fmt.Errorf("trace: kernel %q warp %d rec %d: global memory op with no lines", k.Name, i, j)
			}
			for l := 1; l < len(r.Lines); l++ {
				if r.Lines[l] <= r.Lines[l-1] {
					return fmt.Errorf("trace: kernel %q warp %d rec %d: lines not strictly ascending", k.Name, i, j)
				}
			}
			memInsts++
			memReqs += len(r.Lines)
		} else if len(r.Lines) != 0 {
			return fmt.Errorf("trace: kernel %q warp %d rec %d: lines on non-global-memory op", k.Name, i, j)
		}
	}
	if err := cur.Err(); err != nil {
		return fmt.Errorf("trace: kernel %q warp %d: %w", k.Name, i, err)
	}
	if insts != w.Insts() || memInsts != w.GlobalMemInsts() || memReqs != w.GlobalMemReqs() {
		return fmt.Errorf("trace: kernel %q warp %d: column summary mismatch (%d/%d/%d insts/memInsts/memReqs, summaries say %d/%d/%d)",
			k.Name, i, insts, memInsts, memReqs, w.Insts(), w.GlobalMemInsts(), w.GlobalMemReqs())
	}
	return nil
}

// DepTracker incrementally tracks, per register, the index of the last
// trace record that wrote it. The interval algorithm and the timing
// simulator use it to resolve RAW dependencies while streaming a trace.
type DepTracker struct {
	lastWriter []int
}

// NewDepTracker returns a tracker for a register file of the given size.
func NewDepTracker(numRegs int) *DepTracker {
	lw := make([]int, numRegs)
	for i := range lw {
		lw[i] = -1
	}
	return &DepTracker{lastWriter: lw}
}

// Sources appends the indices of the records that produced r's source
// operands (omitting sources never written) to dst and returns it. Call
// before Record for each trace record in order.
func (d *DepTracker) Sources(r *Rec, dst []int) []int {
	for _, s := range r.SrcRegs() {
		if s == isa.RegNone || int(s) >= len(d.lastWriter) {
			continue
		}
		if w := d.lastWriter[s]; w >= 0 {
			dst = append(dst, w)
		}
	}
	return dst
}

// Record notes that record index idx wrote its destination register.
func (d *DepTracker) Record(r *Rec, idx int) {
	if r.Dst != isa.RegNone && int(r.Dst) < len(d.lastWriter) {
		d.lastWriter[r.Dst] = idx
	}
}

// Assignment maps thread blocks onto cores.
type Assignment struct {
	// CoreBlocks[c] lists the block indices that run on core c, in launch
	// order. Blocks are distributed round-robin, matching a breadth-first
	// hardware block scheduler on a homogeneous kernel.
	CoreBlocks [][]int
}

// Assign distributes blocks round-robin over cores.
func Assign(blocks, cores int) Assignment {
	a := Assignment{CoreBlocks: make([][]int, cores)}
	for b := 0; b < blocks; b++ {
		c := b % cores
		a.CoreBlocks[c] = append(a.CoreBlocks[c], b)
	}
	return a
}

// WarpsForCore returns the warp traces that execute on core c, in block
// launch order.
func (a Assignment) WarpsForCore(k *Kernel, c int) []*WarpTrace {
	var out []*WarpTrace
	for _, b := range a.CoreBlocks[c] {
		out = append(out, k.WarpsOfBlock(b)...)
	}
	return out
}
