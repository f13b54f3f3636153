package emu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"gpumech/internal/isa"
	"gpumech/internal/memory"
)

// The partial-mask launch: two blocks of two warps. Every per-thread
// array holds one 8-byte slot per global thread index g.
const (
	pmThreads = 128
	pmBlock   = 64
	pmShared  = 8 * pmBlock
)

// Per-thread arrays in global memory, one 4 KiB page each: the inputs
// A, B, C, the sentinel D, the predicates P, Q, R and the active flag;
// the dumps of D, R and shared memory; the region loads read and the
// region stores write.
const (
	pmA = 1<<20 + iota<<12
	pmB
	pmC
	pmD
	pmP
	pmQ
	pmR
	pmAct
	pmDOut
	pmROut
	pmShInit
	pmShOut
	pmLd
	pmSt
)

// pmImm is the memory ops' address immediate; the A slots hold the
// address minus pmImm.
const pmImm = 24

// pmThread is one thread's inputs.
type pmThread struct {
	g, tid, lane, warp, blk int
	a, b, c, d              uint64
	p, q, r                 bool
}

func (x pmThread) ai() int64   { return int64(x.a) }
func (x pmThread) bi() int64   { return int64(x.b) }
func (x pmThread) ci() int64   { return int64(x.c) }
func (x pmThread) af() float64 { return math.Float64frombits(x.a) }
func (x pmThread) bf() float64 { return math.Float64frombits(x.b) }
func (x pmThread) cf() float64 { return math.Float64frombits(x.c) }

// pmActive is the branch's lane set: in warp w (of the grid), lanes
// with lane%3 == w%3, plus lane 31. Every warp gets a different,
// non-contiguous set that always includes the last lane.
func pmActive(g int) bool {
	lane, warp := g%32, g/32
	return lane%3 == warp%3 || lane == 31
}

// pmInputs says how a case fills A, B and C.
type pmInputs int

const (
	pmInts    pmInputs = iota // signed integers, with zeros in B
	pmFloats                  // float64 bits, with zeros in A and B
	pmGlobal                  // A: an address in the load or store region; B: a value to store
	pmSharedA                 // A: a shared address; B: a value to store
)

// pmStoreSlot is the slot thread g's memory op addresses: threads
// reversed, in the grid for global memory and within the block for
// shared memory.
func pmStoreSlot(in pmInputs, g int) int {
	if in == pmSharedA {
		return pmBlock - 1 - g%pmBlock
	}
	return pmThreads - 1 - g
}

func pmThreadInputs(c pmCase, g int) pmThread {
	x := pmThread{g: g, tid: g % pmBlock, lane: g % 32, warp: g % pmBlock / 32, blk: g / pmBlock}
	x.d = 0xD0D0_0000_0000_0000 | uint64(g)
	x.p, x.q, x.r = g%2 == 0, g%5 < 2, g%3 == 1
	switch c.in {
	case pmInts:
		x.a = uint64(int64(g*7919%201 - 100))
		x.b = uint64(int64(g*104729%41 - 20))
		x.c = uint64(int64(3*g - 50))
	case pmFloats:
		x.a = math.Float64bits(float64(g%17-8) * 0.75)
		x.b = math.Float64bits(float64(g%11-5) * 0.5)
		x.c = math.Float64bits(float64(g) * 0.125)
	case pmGlobal, pmSharedA:
		var base uint64 // shared memory
		if c.in == pmGlobal && c.ld {
			base = pmLd
		} else if c.in == pmGlobal {
			base = pmSt
		}
		x.a = base + 8*uint64(pmStoreSlot(c.in, g)) - pmImm
		x.b = 0x8877_6655_4433_2200 | uint64(g)
		if c.mt == isa.MemF32 || c.mt == isa.MemF64 {
			x.b = math.Float64bits(float64(g)*1.25 - 7.5)
		}
		x.c = uint64(g)
	}
	return x
}

// pmLoadByte is the initial content of the load region and of shared
// memory, byte by byte.
func pmLoadByte(i int) byte { return byte(i*37 + 11) }

// pmStoreByte is the initial content of the global store region.
const pmStoreByte = 0xA5

// pmLoad widens size bytes to a register value as MemType t defines.
func pmLoad(t isa.MemType, raw []byte) uint64 {
	var buf [8]byte
	copy(buf[:], raw)
	v := binary.LittleEndian.Uint64(buf[:])
	switch t {
	case isa.MemI32:
		return uint64(int64(int32(uint32(v))))
	case isa.MemF32:
		return math.Float64bits(float64(math.Float32frombits(uint32(v))))
	case isa.MemU8:
		return v & 0xFF
	}
	return v
}

// pmStore narrows a register value to the bytes MemType t stores.
func pmStore(t isa.MemType, reg uint64) []byte {
	var buf [8]byte
	switch t {
	case isa.MemF32:
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(math.Float64frombits(reg))))
	default:
		binary.LittleEndian.PutUint64(buf[:], reg)
	}
	return buf[:t.Bytes()]
}

// pmRegs are the registers and predicates a case's op may use.
type pmRegs struct {
	a, b, c, d isa.Reg
	p, q, r    isa.PredReg
}

// pmCase is one opcode under test. d and r give an active thread's new
// D and R (nil: unchanged); ld and st mark a load or store of type mt.
type pmCase struct {
	name   string
	in     pmInputs
	op     func(b *isa.Builder, x pmRegs)
	d      func(x pmThread) uint64
	r      func(x pmThread) bool
	mt     isa.MemType
	ld, st bool
	// unguarded ops (pand, pnot, selp) read Pred as an operand, so they
	// run only inside the branch, never under a guard.
	unguarded bool
}

func pmInt(v int64) uint64     { return uint64(v) }
func pmFloat(v float64) uint64 { return math.Float64bits(v) }

func pmCases() []pmCase {
	alu := func(name string, in pmInputs, op func(b *isa.Builder, x pmRegs), d func(x pmThread) uint64) pmCase {
		return pmCase{name: name, in: in, op: op, d: d}
	}
	cs := []pmCase{
		{name: "nop", in: pmInts, op: func(b *isa.Builder, x pmRegs) { b.Nop() }},
		alu("movi", pmInts, func(b *isa.Builder, x pmRegs) { b.MovI(x.d, -12345) }, func(pmThread) uint64 { return pmInt(-12345) }),
		alu("movf", pmInts, func(b *isa.Builder, x pmRegs) { b.MovF(x.d, 3.75) }, func(pmThread) uint64 { return pmFloat(3.75) }),
		alu("mov", pmInts, func(b *isa.Builder, x pmRegs) { b.Mov(x.d, x.a) }, func(x pmThread) uint64 { return x.a }),
		alu("iadd", pmInts, func(b *isa.Builder, x pmRegs) { b.IAdd(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmInt(x.ai() + x.bi()) }),
		alu("iaddi", pmInts, func(b *isa.Builder, x pmRegs) { b.IAddI(x.d, x.a, 17) }, func(x pmThread) uint64 { return pmInt(x.ai() + 17) }),
		alu("isub", pmInts, func(b *isa.Builder, x pmRegs) { b.ISub(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmInt(x.ai() - x.bi()) }),
		alu("imul", pmInts, func(b *isa.Builder, x pmRegs) { b.IMul(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmInt(x.ai() * x.bi()) }),
		alu("imuli", pmInts, func(b *isa.Builder, x pmRegs) { b.IMulI(x.d, x.a, -3) }, func(x pmThread) uint64 { return pmInt(x.ai() * -3) }),
		alu("imad", pmInts, func(b *isa.Builder, x pmRegs) { b.IMad(x.d, x.a, x.b, x.c) }, func(x pmThread) uint64 { return pmInt(x.ai()*x.bi() + x.ci()) }),
		alu("imin", pmInts, func(b *isa.Builder, x pmRegs) { b.IMin(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmInt(min(x.ai(), x.bi())) }),
		alu("imax", pmInts, func(b *isa.Builder, x pmRegs) { b.IMax(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmInt(max(x.ai(), x.bi())) }),
		alu("and", pmInts, func(b *isa.Builder, x pmRegs) { b.And(x.d, x.a, x.b) }, func(x pmThread) uint64 { return x.a & x.b }),
		alu("andi", pmInts, func(b *isa.Builder, x pmRegs) { b.AndI(x.d, x.a, 0x5A) }, func(x pmThread) uint64 { return x.a & 0x5A }),
		alu("or", pmInts, func(b *isa.Builder, x pmRegs) { b.Or(x.d, x.a, x.b) }, func(x pmThread) uint64 { return x.a | x.b }),
		alu("xor", pmInts, func(b *isa.Builder, x pmRegs) { b.Xor(x.d, x.a, x.b) }, func(x pmThread) uint64 { return x.a ^ x.b }),
		alu("shl", pmInts, func(b *isa.Builder, x pmRegs) { b.Shl(x.d, x.a, 3) }, func(x pmThread) uint64 { return pmInt(x.ai() << 3) }),
		alu("shr", pmInts, func(b *isa.Builder, x pmRegs) { b.Shr(x.d, x.a, 2) }, func(x pmThread) uint64 { return pmInt(x.ai() >> 2) }),
		alu("rem", pmInts, func(b *isa.Builder, x pmRegs) { b.Rem(x.d, x.a, x.b) }, func(x pmThread) uint64 {
			if x.bi() == 0 {
				return 0
			}
			return pmInt(x.ai() % x.bi())
		}),
		alu("remi", pmInts, func(b *isa.Builder, x pmRegs) { b.RemI(x.d, x.a, 7) }, func(x pmThread) uint64 { return pmInt(x.ai() % 7) }),
		alu("idiv", pmInts, func(b *isa.Builder, x pmRegs) { b.IDiv(x.d, x.a, x.b) }, func(x pmThread) uint64 {
			if x.bi() == 0 {
				return 0
			}
			return pmInt(x.ai() / x.bi())
		}),
		alu("idivi", pmInts, func(b *isa.Builder, x pmRegs) { b.IDivI(x.d, x.a, -4) }, func(x pmThread) uint64 { return pmInt(x.ai() / -4) }),

		alu("fadd", pmFloats, func(b *isa.Builder, x pmRegs) { b.FAdd(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmFloat(x.af() + x.bf()) }),
		alu("fsub", pmFloats, func(b *isa.Builder, x pmRegs) { b.FSub(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmFloat(x.af() - x.bf()) }),
		alu("fmul", pmFloats, func(b *isa.Builder, x pmRegs) { b.FMul(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmFloat(x.af() * x.bf()) }),
		alu("ffma", pmFloats, func(b *isa.Builder, x pmRegs) { b.FFma(x.d, x.a, x.b, x.c) }, func(x pmThread) uint64 { return pmFloat(x.af()*x.bf() + x.cf()) }),
		alu("fmin", pmFloats, func(b *isa.Builder, x pmRegs) { b.FMin(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmFloat(math.Min(x.af(), x.bf())) }),
		alu("fmax", pmFloats, func(b *isa.Builder, x pmRegs) { b.FMax(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmFloat(math.Max(x.af(), x.bf())) }),
		alu("fneg", pmFloats, func(b *isa.Builder, x pmRegs) { b.FNeg(x.d, x.a) }, func(x pmThread) uint64 { return pmFloat(-x.af()) }),
		alu("fabs", pmFloats, func(b *isa.Builder, x pmRegs) { b.FAbs(x.d, x.a) }, func(x pmThread) uint64 { return pmFloat(math.Abs(x.af())) }),
		alu("i2f", pmInts, func(b *isa.Builder, x pmRegs) { b.I2F(x.d, x.a) }, func(x pmThread) uint64 { return pmFloat(float64(x.ai())) }),
		alu("f2i", pmFloats, func(b *isa.Builder, x pmRegs) { b.F2I(x.d, x.c) }, func(x pmThread) uint64 { return pmInt(int64(x.cf())) }),
		alu("fdiv", pmFloats, func(b *isa.Builder, x pmRegs) { b.FDiv(x.d, x.a, x.b) }, func(x pmThread) uint64 { return pmFloat(x.af() / x.bf()) }),
		alu("fsqrt", pmFloats, func(b *isa.Builder, x pmRegs) { b.FSqrt(x.d, x.c) }, func(x pmThread) uint64 { return pmFloat(math.Sqrt(x.cf())) }),
		alu("frcp", pmFloats, func(b *isa.Builder, x pmRegs) { b.FRcp(x.d, x.a) }, func(x pmThread) uint64 { return pmFloat(1 / x.af()) }),
		alu("fexp", pmFloats, func(b *isa.Builder, x pmRegs) { b.FExp(x.d, x.a) }, func(x pmThread) uint64 { return pmFloat(math.Exp(x.af())) }),
		alu("flog", pmFloats, func(b *isa.Builder, x pmRegs) { b.FLog(x.d, x.a) }, func(x pmThread) uint64 { return pmFloat(math.Log(math.Abs(x.af()) + 1e-300)) }),
		alu("fsin", pmFloats, func(b *isa.Builder, x pmRegs) { b.FSin(x.d, x.a) }, func(x pmThread) uint64 { return pmFloat(math.Sin(x.af())) }),

		{name: "pand", in: pmInts, unguarded: true, op: func(b *isa.Builder, x pmRegs) { b.PAnd(x.r, x.p, x.q) }, r: func(x pmThread) bool { return x.p && x.q }},
		{name: "pnot", in: pmInts, unguarded: true, op: func(b *isa.Builder, x pmRegs) { b.PNot(x.r, x.p) }, r: func(x pmThread) bool { return !x.p }},
		{name: "selp", in: pmInts, unguarded: true, op: func(b *isa.Builder, x pmRegs) { b.Selp(x.d, x.p, x.a, x.b) }, d: func(x pmThread) uint64 {
			if x.p {
				return x.a
			}
			return x.b
		}},
	}
	cmps := []struct {
		c  isa.Cmp
		fi func(a, b int64) bool
		ff func(a, b float64) bool
	}{
		{isa.CmpEQ, func(a, b int64) bool { return a == b }, func(a, b float64) bool { return a == b }},
		{isa.CmpNE, func(a, b int64) bool { return a != b }, func(a, b float64) bool { return a != b }},
		{isa.CmpLT, func(a, b int64) bool { return a < b }, func(a, b float64) bool { return a < b }},
		{isa.CmpLE, func(a, b int64) bool { return a <= b }, func(a, b float64) bool { return a <= b }},
		{isa.CmpGT, func(a, b int64) bool { return a > b }, func(a, b float64) bool { return a > b }},
		{isa.CmpGE, func(a, b int64) bool { return a >= b }, func(a, b float64) bool { return a >= b }},
	}
	for _, c := range cmps {
		cs = append(cs,
			pmCase{name: "isetp." + c.c.String(), in: pmInts,
				op: func(b *isa.Builder, x pmRegs) { b.ISetp(x.r, c.c, x.a, x.b) },
				r:  func(x pmThread) bool { return c.fi(x.ai(), x.bi()) }},
			pmCase{name: "fsetp." + c.c.String(), in: pmFloats,
				op: func(b *isa.Builder, x pmRegs) { b.FSetp(x.r, c.c, x.a, x.b) },
				r:  func(x pmThread) bool { return c.ff(x.af(), x.bf()) }})
	}
	specials := []struct {
		name string
		k    isa.SpecialKind
		v    func(x pmThread) int
	}{
		{"tid", isa.SrTid, func(x pmThread) int { return x.tid }},
		{"ntid", isa.SrNtid, func(pmThread) int { return pmBlock }},
		{"ctaid", isa.SrCtaid, func(x pmThread) int { return x.blk }},
		{"nctaid", isa.SrNctaid, func(pmThread) int { return pmThreads / pmBlock }},
		{"laneid", isa.SrLaneID, func(x pmThread) int { return x.lane }},
		{"warpid", isa.SrWarpID, func(x pmThread) int { return x.warp }},
		{"globalid", isa.SrGlobalID, func(x pmThread) int { return x.g }},
	}
	for _, s := range specials {
		cs = append(cs, alu("s2r."+s.name, pmInts,
			func(b *isa.Builder, x pmRegs) { b.S2R(x.d, s.k) },
			func(x pmThread) uint64 { return pmInt(int64(s.v(x))) }))
	}
	for _, mt := range []isa.MemType{isa.MemI32, isa.MemF32, isa.MemI64, isa.MemF64, isa.MemU8} {
		name := map[isa.MemType]string{isa.MemI32: "i32", isa.MemF32: "f32", isa.MemI64: "i64", isa.MemF64: "f64", isa.MemU8: "u8"}[mt]
		cs = append(cs,
			pmCase{name: "ldg." + name, in: pmGlobal, mt: mt, ld: true,
				op: func(b *isa.Builder, x pmRegs) { b.LdG(x.d, x.a, pmImm, mt) }},
			pmCase{name: "stg." + name, in: pmGlobal, mt: mt, st: true,
				op: func(b *isa.Builder, x pmRegs) { b.StG(x.a, pmImm, x.b, mt) }},
			pmCase{name: "lds." + name, in: pmSharedA, mt: mt, ld: true,
				op: func(b *isa.Builder, x pmRegs) { b.LdS(x.d, x.a, pmImm, mt) }},
			pmCase{name: "sts." + name, in: pmSharedA, mt: mt, st: true,
				op: func(b *isa.Builder, x pmRegs) { b.StS(x.a, pmImm, x.b, mt) }})
	}
	return cs
}

// pmProgram loads every thread's inputs, runs the case's op for the
// active lanes, inside a branch or under a guard, and dumps D, R and
// shared memory. Barriers around the op let every warp's shared stores
// land before any warp dumps.
func pmProgram(c pmCase, guard bool) (*isa.Program, int) {
	b := isa.NewBuilder(c.name)
	g8, tid8 := b.Reg(), b.Reg()
	b.Shl(g8, b.GlobalID(), 3)
	b.Shl(tid8, b.Tid(), 3)
	x := pmRegs{a: b.Reg(), b: b.Reg(), c: b.Reg(), d: b.Reg(), p: b.Pred(), q: b.Pred(), r: b.Pred()}
	for _, ld := range []struct {
		r    isa.Reg
		base int64
	}{{x.a, pmA}, {x.b, pmB}, {x.c, pmC}, {x.d, pmD}} {
		b.LdG(ld.r, g8, ld.base, isa.MemI64)
	}
	act := b.Pred()
	t := b.Reg()
	for _, ld := range []struct {
		p    isa.PredReg
		base int64
	}{{x.p, pmP}, {x.q, pmQ}, {x.r, pmR}, {act, pmAct}} {
		b.LdG(t, g8, ld.base, isa.MemI64)
		b.ISetpI(ld.p, isa.CmpNE, t, 0)
	}
	b.LdG(t, g8, pmShInit, isa.MemI64)
	b.StS(tid8, 0, t, isa.MemI64)
	b.Bar()
	if guard {
		b.Guarded(act, false, func() { c.op(b, x) })
	} else {
		b.If(act, func() { c.op(b, x) })
	}
	b.Bar()
	b.StG(g8, pmDOut, x.d, isa.MemI64)
	one := b.ImmReg(1)
	b.Guarded(x.r, false, func() { b.StG(g8, pmROut, one, isa.MemI64) })
	b.LdS(t, tid8, 0, isa.MemI64)
	b.StG(g8, pmShOut, t, isa.MemI64)
	prog := b.MustBuild()
	// The op follows the first barrier, after the branch if there is one.
	opPC := 0
	for prog.Instrs[opPC].Op != isa.OpBar {
		opPC++
	}
	opPC++
	if !guard {
		opPC++
	}
	return prog, opPC
}

// pmMemory returns the launch memory of case c: every thread's inputs,
// the load and store regions, and the initial shared contents.
func pmMemory(c pmCase) (*memory.Memory, []pmThread) {
	m := memory.New()
	xs := make([]pmThread, pmThreads)
	for g := range xs {
		x := pmThreadInputs(c, g)
		xs[g] = x
		at := func(base int) uint64 { return uint64(base + 8*g) }
		flag := func(v bool) int64 {
			if v {
				return 1
			}
			return 0
		}
		m.SetI64(at(pmA), int64(x.a))
		m.SetI64(at(pmB), int64(x.b))
		m.SetI64(at(pmC), int64(x.c))
		m.SetI64(at(pmD), int64(x.d))
		m.SetI64(at(pmP), flag(x.p))
		m.SetI64(at(pmQ), flag(x.q))
		m.SetI64(at(pmR), flag(x.r))
		m.SetI64(at(pmAct), flag(pmActive(g)))
		shInit := make([]byte, 8)
		for i := range shInit {
			shInit[i] = pmLoadByte(8*(g%pmBlock) + i)
		}
		m.WriteBytes(at(pmShInit), shInit)
	}
	ld, st := make([]byte, 8*pmThreads), make([]byte, 8*pmThreads)
	for i := range ld {
		ld[i], st[i] = pmLoadByte(i), pmStoreByte
	}
	m.WriteBytes(pmLd, ld)
	m.WriteBytes(pmSt, st)
	return m, xs
}

// TestEveryOpcodeUnderPartialMask runs every non-control opcode — each
// comparison of isetp and fsetp, each special register of s2r, and the
// four memory ops at every MemType — for a non-contiguous lane set, once
// inside a branch and once under a guard predicate (pand, pnot and selp
// read their guard field as an operand, so only inside a branch). Active
// lanes must get the reference value; inactive lanes must keep their
// destination register, their predicate and every byte of global and
// shared memory; and the op's trace record must carry the active mask.
func TestEveryOpcodeUnderPartialMask(t *testing.T) {
	for _, c := range pmCases() {
		for _, guard := range []bool{false, true} {
			if guard && c.unguarded {
				continue
			}
			name := c.name + "/branch"
			if guard {
				name = c.name + "/guard"
			}
			t.Run(name, func(t *testing.T) { checkPartialMask(t, c, guard) })
		}
	}
}

func checkPartialMask(t *testing.T, c pmCase, guard bool) {
	prog, opPC := pmProgram(c, guard)
	m, xs := pmMemory(c)
	k, err := Run(Launch{Prog: prog, Blocks: pmThreads / pmBlock, ThreadsPerBlock: pmBlock,
		SharedBytes: pmShared, Mem: m, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The expected global store region and per-block shared memory.
	st := make([]byte, 8*pmThreads)
	sh := make([]byte, 2*pmShared)
	for i := range st {
		st[i], sh[i] = pmStoreByte, pmLoadByte(i%pmShared)
	}
	for _, x := range xs {
		if !c.st || !pmActive(x.g) {
			continue
		}
		slot := 8 * pmStoreSlot(c.in, x.g)
		if c.in == pmSharedA {
			copy(sh[x.blk*pmShared+slot:], pmStore(c.mt, x.b))
		} else {
			copy(st[slot:], pmStore(c.mt, x.b))
		}
	}

	for _, x := range xs {
		active := pmActive(x.g)
		wantD, wantR := x.d, x.r
		if active && c.d != nil {
			wantD = c.d(x)
		}
		if active && c.r != nil {
			wantR = c.r(x)
		}
		if active && c.ld {
			slot := 8 * pmStoreSlot(c.in, x.g)
			src := make([]byte, 8)
			for i := range src {
				src[i] = pmLoadByte(slot + i)
			}
			wantD = pmLoad(c.mt, src[:c.mt.Bytes()])
		}
		what := fmt.Sprintf("thread %d (warp %d lane %d, active %v)", x.g, x.g/32, x.lane, active)
		if got := uint64(m.I64(uint64(pmDOut + 8*x.g))); got != wantD {
			t.Errorf("%s: D = %#x, want %#x", what, got, wantD)
		}
		if got := m.I64(uint64(pmROut+8*x.g)) == 1; got != wantR {
			t.Errorf("%s: R = %v, want %v", what, got, wantR)
		}
	}
	gotSt := make([]byte, len(st))
	m.ReadBytes(pmSt, gotSt)
	gotSh := make([]byte, len(sh))
	m.ReadBytes(pmShOut, gotSh)
	for i := range st {
		if gotSt[i] != st[i] {
			t.Errorf("global store region byte %d (slot %d) = %#x, want %#x", i, i/8, gotSt[i], st[i])
		}
	}
	for i := range sh {
		if gotSh[i] != sh[i] {
			t.Errorf("block %d shared byte %d = %#x, want %#x", i/pmShared, i%pmShared, gotSh[i], sh[i])
		}
	}

	for w, wt := range k.Warps {
		var want uint32
		for lane := 0; lane < 32; lane++ {
			if pmActive(32*w + lane) {
				want |= 1 << lane
			}
		}
		n := 0
		for _, r := range recsOf(t, wt) {
			if int(r.PC) != opPC {
				continue
			}
			n++
			if r.Mask != want {
				t.Errorf("warp %d: %s record mask %#x, want %#x (%d lanes)", w, r.Op, r.Mask, want, bits.OnesCount32(want))
			}
		}
		if n != 1 {
			t.Errorf("warp %d: %d records of the op at pc %d, want 1", w, n, opPC)
		}
	}
}
