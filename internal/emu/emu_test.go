package emu

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gpumech/internal/isa"
	"gpumech/internal/memory"
	"gpumech/internal/trace"
)

// run executes a single-block launch and returns the trace and memory.
func run(t *testing.T, prog *isa.Program, threads, sharedBytes int, m *memory.Memory) (*trace.Kernel, *memory.Memory) {
	t.Helper()
	if m == nil {
		m = memory.New()
	}
	k, err := Run(Launch{Prog: prog, Blocks: 1, ThreadsPerBlock: threads, SharedBytes: sharedBytes, Mem: m})
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

// recsOf decodes w's records, each with its own copy of its lines.
func recsOf(t *testing.T, w *trace.WarpTrace) []trace.Rec {
	t.Helper()
	var recs []trace.Rec
	cur := w.Cursor()
	for cur.Next() {
		r := *cur.Rec()
		r.Lines = slices.Clone(r.Lines)
		recs = append(recs, r)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// outBase is where test kernels store per-thread results.
const outBase = 1 << 20

// storePerLane builds the standard epilogue: out[tid] = value (4-byte int).
func storePerLane(b *isa.Builder, v isa.Reg) {
	tid := b.Tid()
	addr := b.Reg()
	b.Shl(addr, tid, 2)
	base := b.ImmReg(outBase)
	b.IAdd(addr, addr, base)
	b.StG(addr, 0, v, isa.MemI32)
}

func lanes(t *testing.T, m *memory.Memory, n int) []int32 {
	t.Helper()
	return m.I32Slice(outBase, n)
}

func TestIntegerALUOps(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *isa.Builder, a, c isa.Reg) isa.Reg
		a, c int64
		want int32
	}{
		{"iadd", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.IAdd(r, a, c); return r }, 5, 7, 12},
		{"isub", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.ISub(r, a, c); return r }, 5, 7, -2},
		{"imul", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.IMul(r, a, c); return r }, -3, 7, -21},
		{"imin", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.IMin(r, a, c); return r }, 5, 7, 5},
		{"imax", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.IMax(r, a, c); return r }, 5, 7, 7},
		{"and", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.And(r, a, c); return r }, 0b1100, 0b1010, 0b1000},
		{"or", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.Or(r, a, c); return r }, 0b1100, 0b1010, 0b1110},
		{"xor", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.Xor(r, a, c); return r }, 0b1100, 0b1010, 0b0110},
		{"rem", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.Rem(r, a, c); return r }, 17, 5, 2},
		{"idiv", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.IDiv(r, a, c); return r }, 17, 5, 3},
		{"rem0", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.Rem(r, a, c); return r }, 17, 0, 0},
		{"idiv0", func(b *isa.Builder, a, c isa.Reg) isa.Reg { r := b.Reg(); b.IDiv(r, a, c); return r }, 17, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := isa.NewBuilder(tc.name)
			a, c := b.ImmReg(tc.a), b.ImmReg(tc.c)
			r := tc.emit(b, a, c)
			storePerLane(b, r)
			_, m := run(t, b.MustBuild(), 32, 0, nil)
			for lane, got := range lanes(t, m, 32) {
				if got != tc.want {
					t.Fatalf("lane %d: %d, want %d", lane, got, tc.want)
				}
			}
		})
	}
}

func TestImmediateOps(t *testing.T) {
	b := isa.NewBuilder("imms")
	a := b.ImmReg(10)
	r1, r2, r3, r4, r5, r6 := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.IAddI(r1, a, 5)   // 15
	b.IMulI(r2, a, -2)  // -20
	b.Shl(r3, a, 2)     // 40
	b.Shr(r4, a, 1)     // 5
	b.AndI(r5, a, 0b11) // 2
	b.RemI(r6, a, 4)    // 2
	sum := b.Reg()
	b.IAdd(sum, r1, r2)
	b.IAdd(sum, sum, r3)
	b.IAdd(sum, sum, r4)
	b.IAdd(sum, sum, r5)
	b.IAdd(sum, sum, r6)
	storePerLane(b, sum)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	if got := lanes(t, m, 1)[0]; got != 15-20+40+5+2+2 {
		t.Errorf("immediate chain = %d, want 44", got)
	}
}

func TestIMadAndSelp(t *testing.T) {
	b := isa.NewBuilder("imad")
	a, c, d := b.ImmReg(3), b.ImmReg(4), b.ImmReg(5)
	r := b.Reg()
	b.IMad(r, a, c, d) // 17
	p := b.Pred()
	b.ISetpI(p, isa.CmpGT, r, 10)
	sel := b.Reg()
	b.Selp(sel, p, a, c) // p true -> a = 3
	out := b.Reg()
	b.IAdd(out, r, sel) // 20
	storePerLane(b, out)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	if got := lanes(t, m, 1)[0]; got != 20 {
		t.Errorf("imad+selp = %d, want 20", got)
	}
}

func TestFloatOps(t *testing.T) {
	b := isa.NewBuilder("float")
	x := b.FImmReg(2.0)
	y := b.FImmReg(0.5)
	r := b.Reg()
	b.FMul(r, x, x)    // 4
	b.FAdd(r, r, y)    // 4.5
	b.FSub(r, r, x)    // 2.5
	b.FFma(r, r, x, y) // 5.5
	b.FDiv(r, r, x)    // 2.75
	s := b.Reg()
	b.FSqrt(s, x) // sqrt 2
	b.FMul(r, r, s)
	b.F2I(r, r) // trunc(2.75*1.414..) = 3
	storePerLane(b, r)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	if got := lanes(t, m, 1)[0]; got != 3 {
		t.Errorf("float chain = %d, want 3", got)
	}
}

func TestSFUOps(t *testing.T) {
	b := isa.NewBuilder("sfu")
	x := b.FImmReg(1.0)
	e, l, rcp, sn := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.FExp(e, x)                     // e
	b.FLog(l, e)                     // 1
	b.FRcp(rcp, x)                   // 1
	b.FSin(sn, b.FImmReg(math.Pi/2)) // 1
	sum := b.Reg()
	b.FAdd(sum, l, rcp)
	b.FAdd(sum, sum, sn)
	b.F2I(sum, sum)
	storePerLane(b, sum)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	if got := lanes(t, m, 1)[0]; got < 2 || got > 3 {
		t.Errorf("sfu chain = %d, want ~3 (1+1+1 with rounding)", got)
	}
}

func TestSpecialRegisters(t *testing.T) {
	b := isa.NewBuilder("s2r")
	tid, lane, warp := b.Tid(), b.LaneID(), b.Reg()
	b.S2R(warp, isa.SrWarpID)
	// out[tid] = tid*1000 + warp*100 + lane
	v := b.Reg()
	b.IMulI(v, tid, 1000)
	w100 := b.Reg()
	b.IMulI(w100, warp, 100)
	b.IAdd(v, v, w100)
	b.IAdd(v, v, lane)
	storePerLane(b, v)
	_, m := run(t, b.MustBuild(), 64, 0, nil)
	got := lanes(t, m, 64)
	for tidv := 0; tidv < 64; tidv++ {
		want := int32(tidv*1000 + (tidv/32)*100 + tidv%32)
		if got[tidv] != want {
			t.Fatalf("tid %d: %d, want %d", tidv, got[tidv], want)
		}
	}
}

func TestGlobalIDAcrossBlocks(t *testing.T) {
	b := isa.NewBuilder("gid")
	gid := b.GlobalID()
	addr := b.Reg()
	b.Shl(addr, gid, 2)
	base := b.ImmReg(outBase)
	b.IAdd(addr, addr, base)
	b.StG(addr, 0, gid, isa.MemI32)
	prog := b.MustBuild()
	m := memory.New()
	if _, err := Run(Launch{Prog: prog, Blocks: 3, ThreadsPerBlock: 64, Mem: m}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*64; i++ {
		if got := m.I32(outBase + uint64(4*i)); got != int32(i) {
			t.Fatalf("gid[%d] = %d", i, got)
		}
	}
}

func TestIfDivergence(t *testing.T) {
	// Even lanes take the If body; odd lanes keep their original value.
	b := isa.NewBuilder("ifdiv")
	lane := b.LaneID()
	bit := b.Reg()
	b.AndI(bit, lane, 1)
	p := b.Pred()
	b.ISetpI(p, isa.CmpEQ, bit, 0)
	v := b.ImmReg(100)
	b.If(p, func() { b.MovI(v, 200) })
	storePerLane(b, v)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	for lane, got := range lanes(t, m, 32) {
		want := int32(100)
		if lane%2 == 0 {
			want = 200
		}
		if got != want {
			t.Fatalf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

func TestIfElseDivergence(t *testing.T) {
	b := isa.NewBuilder("ifelse")
	lane := b.LaneID()
	p := b.Pred()
	b.ISetpI(p, isa.CmpLT, lane, 10)
	v := b.Reg()
	b.IfElse(p,
		func() { b.MovI(v, 1) },
		func() { b.MovI(v, 2) })
	// After reconvergence all lanes execute this addition.
	b.IAddI(v, v, 10)
	storePerLane(b, v)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	for lane, got := range lanes(t, m, 32) {
		want := int32(12)
		if lane < 10 {
			want = 11
		}
		if got != want {
			t.Fatalf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

func TestNestedDivergence(t *testing.T) {
	b := isa.NewBuilder("nested")
	lane := b.LaneID()
	pOuter, pInner := b.Pred(), b.Pred()
	b.ISetpI(pOuter, isa.CmpLT, lane, 16)
	v := b.ImmReg(0)
	b.If(pOuter, func() {
		b.ISetpI(pInner, isa.CmpLT, lane, 8)
		b.IfElse(pInner,
			func() { b.MovI(v, 1) },
			func() { b.MovI(v, 2) })
	})
	storePerLane(b, v)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	for lane, got := range lanes(t, m, 32) {
		var want int32
		switch {
		case lane < 8:
			want = 1
		case lane < 16:
			want = 2
		}
		if got != want {
			t.Fatalf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Each lane iterates lane+1 times: v = sum over iterations.
	b := isa.NewBuilder("divloop")
	lane := b.LaneID()
	n := b.Reg()
	b.IAddI(n, lane, 1)
	v := b.ImmReg(0)
	i := b.Reg()
	b.ForN(i, n, func() { b.IAddI(v, v, 1) })
	storePerLane(b, v)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	for lane, got := range lanes(t, m, 32) {
		if got != int32(lane+1) {
			t.Fatalf("lane %d iterated %d times, want %d", lane, got, lane+1)
		}
	}
}

func TestUniformLoopAccumulation(t *testing.T) {
	b := isa.NewBuilder("uloop")
	v := b.ImmReg(0)
	i := b.Reg()
	b.ForImm(i, 0, 10, 2, func() { b.IAdd(v, v, i) }) // 0+2+4+6+8 = 20
	storePerLane(b, v)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	if got := lanes(t, m, 1)[0]; got != 20 {
		t.Errorf("loop sum = %d, want 20", got)
	}
}

func TestWhileLoop(t *testing.T) {
	b := isa.NewBuilder("while")
	lane := b.LaneID()
	v := b.Reg()
	b.Mov(v, lane)
	b.While(func() isa.PredReg {
		p := b.Pred()
		b.ISetpI(p, isa.CmpLT, v, 40)
		return p
	}, func() {
		b.IAddI(v, v, 16)
	})
	storePerLane(b, v)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	for lane, got := range lanes(t, m, 32) {
		want := int32(lane)
		for want < 40 {
			want += 16
		}
		if got != want {
			t.Fatalf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

func TestSharedMemoryAndBarrier(t *testing.T) {
	// Warp 0 writes shared[tid]=tid; after the barrier warp 1 reads
	// shared[tid-32] and stores it. Requires cross-warp barrier ordering.
	b := isa.NewBuilder("shbar")
	tid := b.Tid()
	warp := b.Reg()
	b.S2R(warp, isa.SrWarpID)
	p0 := b.Pred()
	b.ISetpI(p0, isa.CmpEQ, warp, 0)
	sh := b.Reg()
	b.Shl(sh, tid, 2)
	b.If(p0, func() {
		v := b.Reg()
		b.IMulI(v, tid, 3)
		b.StS(sh, 0, v, isa.MemI32)
	})
	b.Bar()
	p1 := b.Pred()
	b.ISetpI(p1, isa.CmpEQ, warp, 1)
	b.If(p1, func() {
		other := b.Reg()
		b.IAddI(other, tid, -32)
		oa := b.Reg()
		b.Shl(oa, other, 2)
		v := b.Reg()
		b.LdS(v, oa, 0, isa.MemI32)
		storePerLane(b, v)
	})
	_, m := run(t, b.MustBuild(), 64, 32*4, nil)
	for i := 32; i < 64; i++ {
		if got := m.I32(outBase + uint64(4*i)); got != int32((i-32)*3) {
			t.Fatalf("tid %d read %d, want %d", i, got, (i-32)*3)
		}
	}
}

func TestSharedOutOfBounds(t *testing.T) {
	b := isa.NewBuilder("oob")
	a := b.ImmReg(1024)
	v := b.Reg()
	b.LdS(v, a, 0, isa.MemI32)
	prog := b.MustBuild()
	_, err := Run(Launch{Prog: prog, Blocks: 1, ThreadsPerBlock: 32, SharedBytes: 16})
	if err == nil {
		t.Fatal("out-of-bounds shared access not reported")
	}
}

// TestSharedAddressNearMaxInt64 loads a shared address of MaxInt64-1
// from global memory, where the checker cannot bound it, and accesses
// shared memory through it: the end of the access overflows int64, and
// the emulator must report the access out of bounds, not panic.
func TestSharedAddressNearMaxInt64(t *testing.T) {
	for _, op := range []isa.Op{isa.OpLdS, isa.OpStS} {
		b := isa.NewBuilder("farshared")
		ptr := b.Reg()
		b.LdG(ptr, b.ImmReg(4096), 0, isa.MemI64)
		v := b.ImmReg(1)
		if op == isa.OpLdS {
			b.LdS(v, ptr, 0, isa.MemI32)
		} else {
			b.StS(ptr, 0, v, isa.MemI32)
		}
		m := memory.New()
		m.SetI64(4096, math.MaxInt64-1)
		_, err := Run(Launch{Prog: b.MustBuild(), Blocks: 1, ThreadsPerBlock: 32, SharedBytes: 16, Mem: m})
		want := fmt.Sprintf("lane 0 shared access at %d outside 16-byte segment", int64(math.MaxInt64-1))
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), op.String()) {
			t.Errorf("%s: error %v, want %q", op, err, want)
		}
	}
}

func TestGlobalMemoryTypes(t *testing.T) {
	b := isa.NewBuilder("memtypes")
	base := b.ImmReg(4096)
	f := b.FImmReg(1.5)
	b.StG(base, 0, f, isa.MemF32)
	rf := b.Reg()
	b.LdG(rf, base, 0, isa.MemF32)
	i := b.ImmReg(-7)
	b.StG(base, 8, i, isa.MemI32)
	ri := b.Reg()
	b.LdG(ri, base, 8, isa.MemI32)
	bv := b.ImmReg(0x1FF) // truncated to one byte
	b.StG(base, 16, bv, isa.MemU8)
	rb := b.Reg()
	b.LdG(rb, base, 16, isa.MemU8)
	sum := b.Reg()
	b.F2I(sum, rf) // 1
	b.IAdd(sum, sum, ri)
	b.IAdd(sum, sum, rb) // 1 - 7 + 255 = 249
	storePerLane(b, sum)
	_, m := run(t, b.MustBuild(), 32, 0, nil)
	if got := lanes(t, m, 1)[0]; got != 249 {
		t.Errorf("mixed types = %d, want 249", got)
	}
}

func TestTraceRecordsDependencies(t *testing.T) {
	b := isa.NewBuilder("deps")
	p := b.Pred()
	r := b.ImmReg(1)
	b.ISetpI(p, isa.CmpGT, r, 0)
	b.If(p, func() { b.Nop() })
	prog := b.MustBuild()
	k, _ := run(t, prog, 32, 0, nil)
	recs := recsOf(t, k.Warps[0])

	// Find the setp and the branch; the branch must read the predicate
	// the setp wrote, in the unified namespace.
	var setpDst isa.Reg = isa.RegNone
	for i := range recs {
		if recs[i].Op == isa.OpISetp {
			setpDst = recs[i].Dst
		}
		if recs[i].Op == isa.OpBra {
			found := false
			for _, s := range recs[i].SrcRegs() {
				if s == setpDst {
					found = true
				}
			}
			if !found {
				t.Fatalf("branch sources %v do not include setp's dst %d", recs[i].SrcRegs(), setpDst)
			}
		}
	}
	if setpDst == isa.RegNone {
		t.Fatal("setp record missing or without dst")
	}
	if int(setpDst) < prog.NumRegs {
		t.Errorf("predicate dst %d not in the unified namespace (NumRegs=%d)", setpDst, prog.NumRegs)
	}
}

func TestTraceCoalescingRecorded(t *testing.T) {
	b := isa.NewBuilder("lines")
	lane := b.LaneID()
	// Coalesced: addr = base + 4*lane.
	a1 := b.Reg()
	b.Shl(a1, lane, 2)
	base := b.ImmReg(1 << 16)
	b.IAdd(a1, a1, base)
	v := b.Reg()
	b.LdG(v, a1, 0, isa.MemF32)
	// Diverged: addr = base2 + 128*lane.
	a2 := b.Reg()
	b.IMulI(a2, lane, 128)
	base2 := b.ImmReg(1 << 17)
	b.IAdd(a2, a2, base2)
	w := b.Reg()
	b.LdG(w, a2, 0, isa.MemF32)
	prog := b.MustBuild()
	k, _ := run(t, prog, 32, 0, nil)
	var reqCounts []int
	for _, r := range recsOf(t, k.Warps[0]) {
		if r.Op == isa.OpLdG {
			reqCounts = append(reqCounts, r.NumReqs())
		}
	}
	if len(reqCounts) != 2 || reqCounts[0] != 1 || reqCounts[1] != 32 {
		t.Fatalf("request counts = %v, want [1 32]", reqCounts)
	}
}

func TestPredicatedMemMask(t *testing.T) {
	b := isa.NewBuilder("pmask")
	lane := b.LaneID()
	p := b.Pred()
	b.ISetpI(p, isa.CmpLT, lane, 4)
	addr := b.Reg()
	b.Shl(addr, lane, 2)
	base := b.ImmReg(1 << 16)
	b.IAdd(addr, addr, base)
	v := b.ImmReg(1)
	b.Guarded(p, false, func() {
		b.StG(addr, 0, v, isa.MemI32)
	})
	prog := b.MustBuild()
	k, m := run(t, prog, 32, 0, nil)
	// Only the first four lanes stored.
	for i := 0; i < 32; i++ {
		want := int32(0)
		if i < 4 {
			want = 1
		}
		if got := m.I32((1 << 16) + uint64(4*i)); got != want {
			t.Fatalf("lane %d stored %d, want %d", i, got, want)
		}
	}
	for _, r := range recsOf(t, k.Warps[0]) {
		if r.Op == isa.OpStG {
			if r.Mask != 0xF {
				t.Errorf("store mask = %#x, want 0xF", r.Mask)
			}
			if r.NumReqs() != 1 {
				t.Errorf("store reqs = %d, want 1", r.NumReqs())
			}
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	b := isa.NewBuilder("v")
	b.Nop()
	prog := b.MustBuild()
	cases := []Launch{
		{Prog: nil, Blocks: 1, ThreadsPerBlock: 32},
		{Prog: prog, Blocks: 0, ThreadsPerBlock: 32},
		{Prog: prog, Blocks: 1, ThreadsPerBlock: 33},
		{Prog: prog, Blocks: 1, ThreadsPerBlock: 0},
	}
	for i, l := range cases {
		if _, err := Run(l); err == nil {
			t.Errorf("case %d: invalid launch accepted", i)
		}
	}
}

func TestMaxRecsCap(t *testing.T) {
	b := isa.NewBuilder("runaway")
	v := b.ImmReg(0)
	i := b.Reg()
	b.ForImm(i, 0, 1_000_000, 1, func() { b.IAddI(v, v, 1) })
	prog := b.MustBuild()
	_, err := Run(Launch{Prog: prog, Blocks: 1, ThreadsPerBlock: 32, MaxRecs: 1000})
	if err == nil {
		t.Fatal("record cap not enforced")
	}
}

func TestDeterminism(t *testing.T) {
	b := isa.NewBuilder("det")
	lane := b.LaneID()
	p := b.Pred()
	b.ISetpI(p, isa.CmpLT, lane, 13)
	v := b.ImmReg(0)
	b.IfElse(p, func() { b.MovI(v, 1) }, func() { b.MovI(v, 2) })
	storePerLane(b, v)
	prog := b.MustBuild()
	k1, _ := run(t, prog, 64, 0, nil)
	k2, _ := run(t, prog, 64, 0, nil)
	if k1.TotalInsts() != k2.TotalInsts() {
		t.Fatal("nondeterministic instruction count")
	}
	for w := range k1.Warps {
		recs1, recs2 := recsOf(t, k1.Warps[w]), recsOf(t, k2.Warps[w])
		for i := range recs1 {
			a, c := recs1[i], recs2[i]
			if a.PC != c.PC || a.Mask != c.Mask {
				t.Fatalf("warp %d rec %d differs", w, i)
			}
		}
	}
}

func TestReconvergenceMaskRestored(t *testing.T) {
	// After a divergent If, the store must execute with the full mask.
	b := isa.NewBuilder("mask")
	lane := b.LaneID()
	p := b.Pred()
	b.ISetpI(p, isa.CmpEQ, lane, 0)
	b.If(p, func() { b.Nop() })
	v := b.ImmReg(5)
	storePerLane(b, v)
	prog := b.MustBuild()
	k, _ := run(t, prog, 32, 0, nil)
	for _, r := range recsOf(t, k.Warps[0]) {
		if r.Op == isa.OpStG && r.Mask != 0xFFFFFFFF {
			t.Fatalf("post-reconvergence store mask = %#x", r.Mask)
		}
	}
}

// TestNaNOperandOrder pins which NaN a floating-point instruction
// returns when more than one operand is a NaN. IEEE 754 leaves the
// choice open; on amd64 it is the operand the compiled code keeps in
// the destination register, so it follows how each operation is
// written, not what it computes. Final memory depends on it
// (gen/s1/i29 in testdata/emu stores such NaNs), so a rewrite of an
// operation must keep these results: multiplication returns its second
// operand's NaN, addition, subtraction and division their first's, and
// fmin and fmax a NaN of their own. The values were recorded on amd64.
func TestNaNOperandOrder(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("NaN propagation recorded on amd64")
	}
	const n1, n2, n3 = 0x7ff8000000000001, 0xfff8000000000002, 0x7ff8000000000003
	const one, two = 0x3ff0000000000000, 0x4000000000000000
	for _, c := range []struct {
		op            isa.Op
		a, b, c, want uint64
	}{
		{isa.OpFAdd, n1, n2, 0, n1}, {isa.OpFAdd, n2, n1, 0, n2},
		{isa.OpFSub, n1, n2, 0, n1}, {isa.OpFSub, n2, n1, 0, n2},
		{isa.OpFMul, n1, n2, 0, n2}, {isa.OpFMul, n2, n1, 0, n1},
		{isa.OpFDiv, n1, n2, 0, n1}, {isa.OpFDiv, n2, n1, 0, n2},
		{isa.OpFFma, n1, n2, n3, n2}, {isa.OpFFma, n2, n1, n3, n1},
		{isa.OpFFma, n1, one, n3, n1}, {isa.OpFFma, one, n1, n3, n1},
		{isa.OpFFma, one, two, n3, n3},
		{isa.OpFMin, n1, n2, 0, n1}, {isa.OpFMax, n2, n1, 0, n1},
	} {
		b := isa.NewBuilder("nan")
		x, y, z := b.FImmReg(math.Float64frombits(c.a)), b.FImmReg(math.Float64frombits(c.b)), b.FImmReg(math.Float64frombits(c.c))
		d := b.Reg()
		switch c.op {
		case isa.OpFAdd:
			b.FAdd(d, x, y)
		case isa.OpFSub:
			b.FSub(d, x, y)
		case isa.OpFMul:
			b.FMul(d, x, y)
		case isa.OpFDiv:
			b.FDiv(d, x, y)
		case isa.OpFFma:
			b.FFma(d, x, y, z)
		case isa.OpFMin:
			b.FMin(d, x, y)
		case isa.OpFMax:
			b.FMax(d, x, y)
		}
		b.StG(b.ImmReg(4096), 0, d, isa.MemF64)
		_, m := run(t, b.MustBuild(), 32, 0, nil)
		if got := m.Read(4096, 8); got != c.want {
			t.Errorf("%s(%#x, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, c.c, got, c.want)
		}
	}
}
