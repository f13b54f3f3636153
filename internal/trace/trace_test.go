package trace

import (
	"slices"
	"testing"

	"gpumech/internal/isa"
)

// noSrcs is the source list of a record that reads no register.
var noSrcs = [4]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone, isa.RegNone}

func rec(pc int, op isa.Op, dst isa.Reg, srcs ...isa.Reg) Rec {
	r := Rec{PC: int32(pc), Op: op, Dst: dst, Mask: 1}
	for i := range r.Srcs {
		r.Srcs[i] = isa.RegNone
	}
	for i, s := range srcs {
		r.Srcs[i] = s
		r.NumSrcs++
		_ = i
	}
	return r
}

func TestDepTrackerRAWChain(t *testing.T) {
	d := NewDepTracker(8)
	recs := []Rec{
		rec(0, isa.OpMovI, 1),
		rec(1, isa.OpIAdd, 2, 1, 1),
		rec(2, isa.OpIAdd, 3, 2, 1),
	}
	var buf []int
	for i := range recs {
		buf = d.Sources(&recs[i], buf[:0])
		switch i {
		case 0:
			if len(buf) != 0 {
				t.Errorf("rec 0 sources = %v, want none", buf)
			}
		case 1:
			if len(buf) != 2 || buf[0] != 0 || buf[1] != 0 {
				t.Errorf("rec 1 sources = %v, want [0 0]", buf)
			}
		case 2:
			if len(buf) != 2 || buf[0] != 1 || buf[1] != 0 {
				t.Errorf("rec 2 sources = %v, want [1 0]", buf)
			}
		}
		d.Record(&recs[i], i)
	}
}

func TestDepTrackerLastWriterWins(t *testing.T) {
	d := NewDepTracker(4)
	w1 := rec(0, isa.OpMovI, 2)
	w2 := rec(1, isa.OpMovI, 2)
	use := rec(2, isa.OpMov, 3, 2)
	d.Record(&w1, 0)
	d.Record(&w2, 1)
	buf := d.Sources(&use, nil)
	if len(buf) != 1 || buf[0] != 1 {
		t.Errorf("sources = %v, want [1] (last writer)", buf)
	}
}

func TestDepTrackerIgnoresUnwritten(t *testing.T) {
	d := NewDepTracker(4)
	use := rec(0, isa.OpMov, 1, 3)
	if buf := d.Sources(&use, nil); len(buf) != 0 {
		t.Errorf("sources of unwritten reg = %v", buf)
	}
}

func TestDepTrackerOutOfRangeReg(t *testing.T) {
	d := NewDepTracker(2)
	r := rec(0, isa.OpMov, 1, 200) // source beyond file size
	if buf := d.Sources(&r, nil); len(buf) != 0 {
		t.Errorf("out-of-range source produced %v", buf)
	}
	big := rec(1, isa.OpMovI, 200)
	d.Record(&big, 1) // must not panic
}

func TestAssignRoundRobin(t *testing.T) {
	a := Assign(10, 4)
	want := [][]int{{0, 4, 8}, {1, 5, 9}, {2, 6}, {3, 7}}
	for c := range want {
		if len(a.CoreBlocks[c]) != len(want[c]) {
			t.Fatalf("core %d blocks = %v, want %v", c, a.CoreBlocks[c], want[c])
		}
		for i, b := range want[c] {
			if a.CoreBlocks[c][i] != b {
				t.Errorf("core %d block %d = %d, want %d", c, i, a.CoreBlocks[c][i], b)
			}
		}
	}
}

// encodeRecs encodes recs as one warp's column streams.
func encodeRecs(t testing.TB, recs []Rec) *ColWarp {
	t.Helper()
	var b ColBuilder
	for i := range recs {
		if err := b.Append(&recs[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	cw := b.Finish()
	return &cw
}

// decodeRecs decodes every record of c, each with its own copy of its
// lines.
func decodeRecs(c *ColWarp) ([]Rec, error) {
	var recs []Rec
	cur := c.Cursor()
	for cur.Next() {
		r := *cur.Rec()
		r.Lines = slices.Clone(r.Lines)
		recs = append(recs, r)
	}
	return recs, cur.Err()
}

func makeKernel(t testing.TB, blocks, warpsPerBlock, recsPerWarp int) *Kernel {
	return makeKernelWith(t, blocks, warpsPerBlock, recsPerWarp, nil)
}

// makeKernelWith builds a kernel of blocks x warpsPerBlock warps with
// recsPerWarp integer adds each, letting mod (if non-nil) rewrite record
// i of warp w before it is encoded.
func makeKernelWith(t testing.TB, blocks, warpsPerBlock, recsPerWarp int, mod func(w, i int, r *Rec)) *Kernel {
	prog := &isa.Program{Name: "t", NumRegs: 8, NumPreds: 2,
		Instrs: make([]isa.Instr, 4)}
	prog.Instrs[3] = isa.Instr{Op: isa.OpExit}
	k := &Kernel{Name: "t", Prog: prog, Blocks: blocks, WarpsPerBlock: warpsPerBlock, LineBytes: 128}
	for b := 0; b < blocks; b++ {
		for w := 0; w < warpsPerBlock; w++ {
			recs := make([]Rec, recsPerWarp)
			for i := range recs {
				recs[i] = rec(i%3, isa.OpIAdd, 1, 2)
				if mod != nil {
					mod(len(k.Warps), i, &recs[i])
				}
			}
			k.Warps = append(k.Warps, &WarpTrace{BlockID: b, WarpID: w, ColWarp: *encodeRecs(t, recs)})
		}
	}
	return k
}

func TestKernelValidateOK(t *testing.T) {
	k := makeKernel(t, 3, 2, 5)
	if err := k.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
}

func TestKernelValidateCatchesBadCounts(t *testing.T) {
	k := makeKernel(t, 3, 2, 5)
	k.Warps = k.Warps[:len(k.Warps)-1]
	if err := k.Validate(); err == nil {
		t.Error("missing warp not caught")
	}
}

func TestKernelValidateCatchesBadPC(t *testing.T) {
	k := makeKernelWith(t, 1, 1, 2, func(w, i int, r *Rec) {
		if i == 0 {
			r.PC = 99
		}
	})
	if err := k.Validate(); err == nil {
		t.Error("out-of-range PC not caught")
	}
}

func TestKernelValidateCatchesMissingLines(t *testing.T) {
	k := makeKernelWith(t, 1, 1, 2, func(w, i int, r *Rec) {
		if i == 0 {
			*r = Rec{PC: 0, Op: isa.OpLdG, Dst: 1, Mask: 0xF, Srcs: noSrcs}
		}
	})
	if err := k.Validate(); err == nil {
		t.Error("global memory record without lines not caught")
	}
}

func TestWarpsOfBlock(t *testing.T) {
	k := makeKernel(t, 3, 2, 1)
	ws := k.WarpsOfBlock(1)
	if len(ws) != 2 || ws[0].BlockID != 1 || ws[1].WarpID != 1 {
		t.Fatalf("WarpsOfBlock(1) wrong: %+v", ws)
	}
}

func TestWarpsForCore(t *testing.T) {
	k := makeKernel(t, 4, 2, 1)
	a := Assign(4, 2)
	ws := a.WarpsForCore(k, 0) // blocks 0, 2
	if len(ws) != 4 {
		t.Fatalf("core 0 warps = %d, want 4", len(ws))
	}
	if ws[0].BlockID != 0 || ws[2].BlockID != 2 {
		t.Errorf("block order wrong: %d %d", ws[0].BlockID, ws[2].BlockID)
	}
}

func TestTotalInstsAndCounters(t *testing.T) {
	k := makeKernel(t, 2, 2, 7)
	if got := k.TotalInsts(); got != 2*2*7 {
		t.Errorf("TotalInsts = %d, want 28", got)
	}
	w := k.Warps[0]
	if w.Insts() != 7 {
		t.Errorf("Insts = %d", w.Insts())
	}
	if w.GlobalMemInsts() != 0 || w.GlobalMemReqs() != 0 {
		t.Error("compute-only warp reports memory activity")
	}
	w = makeKernelWith(t, 1, 1, 7, func(w, i int, r *Rec) {
		if i == 0 {
			*r = Rec{PC: 0, Op: isa.OpLdG, Dst: 1, Mask: 1, Lines: []uint64{0, 128}, Srcs: noSrcs}
		}
	}).Warps[0]
	if w.GlobalMemInsts() != 1 || w.GlobalMemReqs() != 2 {
		t.Errorf("mem counters = %d/%d, want 1/2", w.GlobalMemInsts(), w.GlobalMemReqs())
	}
}

func TestRecHelpers(t *testing.T) {
	r := Rec{Op: isa.OpLdG, Mask: 0b1011, Lines: []uint64{0}}
	if r.ActiveLanes() != 3 {
		t.Errorf("ActiveLanes = %d", r.ActiveLanes())
	}
	if !r.IsGlobalMem() || r.NumReqs() != 1 {
		t.Error("IsGlobalMem/NumReqs wrong")
	}
	s := rec(0, isa.OpIAdd, 3, 1, 2)
	if got := s.SrcRegs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("SrcRegs = %v", got)
	}
}
