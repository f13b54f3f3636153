package emu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"gpumech/internal/check"
	"gpumech/internal/coalesce"
	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// The operations below execute one warp-instruction each. They switch
// on the opcode and memory type once, and each case runs its own loop
// over the active lanes, visited as the set bits of the mask in
// ascending order. Registers and memory are touched in exactly the
// order a loop over lanes with the switch inside it would touch them,
// so a store by several lanes to one address leaves the highest lane's
// value and a faulting access reports the lowest faulting lane.

// vec returns register r's value in every lane.
func vec(regs []uint64, r isa.Reg) *[32]uint64 {
	return (*[32]uint64)(regs[int(r)*32:])
}

// lane returns the lowest lane set in m.
func lane(m uint32) int { return bits.TrailingZeros32(m) & 31 }

func f64(v uint64) float64 { return math.Float64frombits(v) }
func u64(f float64) uint64 { return math.Float64bits(f) }

// execALU executes an arithmetic, predicate, select or special-register
// instruction. Two's-complement addition, subtraction, multiplication,
// bitwise operations and left shifts give the same bits on uint64 as
// on int64, so those act on the raw register bits; comparisons, right
// shifts, division and remainder take the signed view.
func (b *block) execALU(w *warp, in *isa.Instr, active uint32) {
	regs := w.regs
	d, x, y, z := in.Dst, in.SrcA, in.SrcB, in.SrcC
	imm := in.Imm
	switch in.Op {
	case isa.OpNop:
	case isa.OpMovI:
		dv := vec(regs, d)
		for m := active; m != 0; m &= m - 1 {
			dv[lane(m)] = uint64(imm)
		}
	case isa.OpMovF:
		v := u64(in.FImm)
		dv := vec(regs, d)
		for m := active; m != 0; m &= m - 1 {
			dv[lane(m)] = v
		}
	case isa.OpMov:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l]
		}
	case isa.OpIAdd:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] + yv[l]
		}
	case isa.OpIAddI:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] + uint64(imm)
		}
	case isa.OpISub:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] - yv[l]
		}
	case isa.OpIMul:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] * yv[l]
		}
	case isa.OpIMulI:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] * uint64(imm)
		}
	case isa.OpIMad:
		dv, xv, yv, zv := vec(regs, d), vec(regs, x), vec(regs, y), vec(regs, z)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l]*yv[l] + zv[l]
		}
	case isa.OpIMin:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = uint64(min(int64(xv[l]), int64(yv[l])))
		}
	case isa.OpIMax:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = uint64(max(int64(xv[l]), int64(yv[l])))
		}
	case isa.OpAnd:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] & yv[l]
		}
	case isa.OpAndI:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] & uint64(imm)
		}
	case isa.OpOr:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] | yv[l]
		}
	case isa.OpXor:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] ^ yv[l]
		}
	case isa.OpShl:
		sh := uint(imm & 63)
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = xv[l] << sh
		}
	case isa.OpShr:
		sh := uint(imm & 63)
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = uint64(int64(xv[l]) >> sh)
		}
	case isa.OpRem:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			var v int64
			if q := int64(yv[l]); q != 0 {
				v = int64(xv[l]) % q
			}
			dv[l] = uint64(v)
		}
	case isa.OpRemI:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			var v int64
			if imm != 0 {
				v = int64(xv[l]) % imm
			}
			dv[l] = uint64(v)
		}
	case isa.OpIDiv:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			var v int64
			if q := int64(yv[l]); q != 0 {
				v = int64(xv[l]) / q
			}
			dv[l] = uint64(v)
		}
	case isa.OpIDivI:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			var v int64
			if imm != 0 {
				v = int64(xv[l]) / imm
			}
			dv[l] = uint64(v)
		}

	case isa.OpFAdd:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(f64(xv[l]) + f64(yv[l]))
		}
	case isa.OpFSub:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(f64(xv[l]) - f64(yv[l]))
		}
	case isa.OpFMul:
		// Written B*A: with two NaN operands the product is B's NaN,
		// which TestNaNOperandOrder pins.
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(f64(yv[l]) * f64(xv[l]))
		}
	case isa.OpFFma:
		// The product is written B*A, as for fmul.
		dv, xv, yv, zv := vec(regs, d), vec(regs, x), vec(regs, y), vec(regs, z)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(f64(yv[l])*f64(xv[l]) + f64(zv[l]))
		}
	case isa.OpFMin:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(math.Min(f64(xv[l]), f64(yv[l])))
		}
	case isa.OpFMax:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(math.Max(f64(xv[l]), f64(yv[l])))
		}
	case isa.OpFNeg:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(-f64(xv[l]))
		}
	case isa.OpFAbs:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(math.Abs(f64(xv[l])))
		}
	case isa.OpI2F:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(float64(int64(xv[l])))
		}
	case isa.OpF2I:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = uint64(int64(f64(xv[l])))
		}

	case isa.OpFDiv:
		dv, xv, yv := vec(regs, d), vec(regs, x), vec(regs, y)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(f64(xv[l]) / f64(yv[l]))
		}
	case isa.OpFSqrt:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(math.Sqrt(f64(xv[l])))
		}
	case isa.OpFRcp:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(1 / f64(xv[l]))
		}
	case isa.OpFExp:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(math.Exp(f64(xv[l])))
		}
	case isa.OpFLog:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(math.Log(math.Abs(f64(xv[l])) + 1e-300))
		}
	case isa.OpFSin:
		dv, xv := vec(regs, d), vec(regs, x)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			dv[l] = u64(math.Sin(f64(xv[l])))
		}

	case isa.OpISetp, isa.OpFSetp, isa.OpPAnd, isa.OpPNot, isa.OpSelp:
		execPred(w, in, active)

	case isa.OpS2R:
		b.execS2R(w, in, active)
	}
}

// execPred executes the predicate-setting and predicate-selecting
// instructions. A predicate register holds one bit per lane; only the
// active lanes' bits change.
func execPred(w *warp, in *isa.Instr, active uint32) {
	regs, preds := w.regs, w.preds
	pd, pa, pb := in.PDst, in.Pred, in.Pred2
	switch in.Op {
	case isa.OpISetp:
		holds := cmpHolds(in.Cmp)
		xv, yv := vec(regs, in.SrcA), vec(regs, in.SrcB)
		var set uint32
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			a, c := int64(xv[l]), int64(yv[l])
			k := cmpGT
			if a < c {
				k = cmpLT
			} else if a == c {
				k = cmpEQ
			}
			if holds&k != 0 {
				set |= 1 << l
			}
		}
		preds[pd] = preds[pd]&^active | set
	case isa.OpFSetp:
		holds := cmpHolds(in.Cmp)
		xv, yv := vec(regs, in.SrcA), vec(regs, in.SrcB)
		var set uint32
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			a, c := f64(xv[l]), f64(yv[l])
			k := cmpUnordered
			switch {
			case a < c:
				k = cmpLT
			case a == c:
				k = cmpEQ
			case a > c:
				k = cmpGT
			}
			if holds&k != 0 {
				set |= 1 << l
			}
		}
		preds[pd] = preds[pd]&^active | set
	case isa.OpPAnd:
		preds[pd] = preds[pd]&^active | preds[pa]&preds[pb]&active
	case isa.OpPNot:
		preds[pd] = preds[pd]&^active | ^preds[pa]&active
	case isa.OpSelp:
		sel := preds[pa]
		dv, xv, yv := vec(regs, in.Dst), vec(regs, in.SrcA), vec(regs, in.SrcB)
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			if sel&(1<<l) != 0 {
				dv[l] = xv[l]
			} else {
				dv[l] = yv[l]
			}
		}
	}
}

// The outcomes of comparing two values; NaN compares unordered.
const (
	cmpLT = 1 << iota
	cmpEQ
	cmpGT
	cmpUnordered
)

// cmpHolds returns the outcomes for which comparison c holds. An
// undefined comparison never holds.
func cmpHolds(c isa.Cmp) int {
	switch c {
	case isa.CmpEQ:
		return cmpEQ
	case isa.CmpNE:
		return cmpLT | cmpGT | cmpUnordered
	case isa.CmpLT:
		return cmpLT
	case isa.CmpLE:
		return cmpLT | cmpEQ
	case isa.CmpGT:
		return cmpGT
	case isa.CmpGE:
		return cmpGT | cmpEQ
	}
	return 0
}

// execS2R reads a special register: base plus, for the thread and lane
// indices, the lane. An unknown kind leaves the destination unchanged.
func (b *block) execS2R(w *warp, in *isa.Instr, active uint32) {
	tid0 := int64(w.id * b.l.WarpSize) // the warp's first thread
	var base, perLane int64
	switch isa.SpecialKind(in.Imm) {
	case isa.SrTid:
		base, perLane = tid0, 1
	case isa.SrGlobalID:
		base, perLane = int64(b.id*b.l.ThreadsPerBlock)+tid0, 1
	case isa.SrLaneID:
		perLane = 1
	case isa.SrNtid:
		base = int64(b.l.ThreadsPerBlock)
	case isa.SrCtaid:
		base = int64(b.id)
	case isa.SrNctaid:
		base = int64(b.l.Blocks)
	case isa.SrWarpID:
		base = int64(w.id)
	default:
		return
	}
	dv := vec(w.regs, in.Dst)
	for m := active; m != 0; m &= m - 1 {
		l := lane(m)
		dv[l] = uint64(base + perLane*int64(l))
	}
}

// execShared executes a shared-memory load or store. Every active
// lane's address is checked before any lane's access, and the lowest
// lane outside the block's segment ends the instruction with an error.
// Nothing observes the segment or the registers after an error, so
// this returns exactly what checking each lane just before its access
// would.
func (b *block) execShared(w *warp, in *isa.Instr, active uint32) error {
	sh := b.shared
	av := vec(w.regs, in.SrcA)
	limit := int64(len(sh) - in.Mem.Bytes()) // the last offset an access may start at
	var off [32]int64
	for m := active; m != 0; m &= m - 1 {
		l := lane(m)
		ea := int64(av[l]) + in.Imm
		if ea < 0 || ea > limit {
			return check.Runtime(b.l.Prog.Name, b.id, w.id, rec0PC(w), in.Op.String(),
				"lane %d shared access at %d outside %d-byte segment", l, ea, len(sh))
		}
		off[l] = ea
	}
	if in.Op == isa.OpLdS {
		dv := vec(w.regs, in.Dst)
		switch in.Mem {
		case isa.MemI32:
			for m := active; m != 0; m &= m - 1 {
				l := lane(m)
				dv[l] = uint64(int64(int32(le.Uint32(sh[off[l]:]))))
			}
		case isa.MemF32:
			for m := active; m != 0; m &= m - 1 {
				l := lane(m)
				dv[l] = u64(float64(math.Float32frombits(le.Uint32(sh[off[l]:]))))
			}
		case isa.MemU8:
			for m := active; m != 0; m &= m - 1 {
				l := lane(m)
				dv[l] = uint64(sh[off[l]])
			}
		default: // MemI64, MemF64
			for m := active; m != 0; m &= m - 1 {
				l := lane(m)
				dv[l] = le.Uint64(sh[off[l]:])
			}
		}
		return nil
	}
	sv := vec(w.regs, in.SrcB)
	switch in.Mem {
	case isa.MemI32:
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			le.PutUint32(sh[off[l]:], uint32(sv[l]))
		}
	case isa.MemF32:
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			le.PutUint32(sh[off[l]:], math.Float32bits(float32(f64(sv[l]))))
		}
	case isa.MemU8:
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			sh[off[l]] = byte(sv[l])
		}
	default: // MemI64, MemF64
		for m := active; m != 0; m &= m - 1 {
			l := lane(m)
			le.PutUint64(sh[off[l]:], sv[l])
		}
	}
	return nil
}

var le = binary.LittleEndian

// execGlobal executes a global-memory load or store and records the
// instruction's coalesced lines in rec. The lanes' addresses are taken
// first, in lane order; the accesses then run in the same order.
func (b *block) execGlobal(w *warp, in *isa.Instr, active uint32, rec *trace.Rec) {
	mem, size := b.mem, in.Mem.Bytes()
	av := vec(w.regs, in.SrcA)
	addrs := b.scratch[:0]
	for m := active; m != 0; m &= m - 1 {
		addrs = append(addrs, uint64(int64(av[lane(m)])+in.Imm))
	}
	b.scratch = addrs
	if in.Op == isa.OpLdG {
		dv := vec(w.regs, in.Dst)
		m := active
		switch in.Mem {
		case isa.MemI32:
			for _, ea := range addrs {
				dv[lane(m)] = uint64(int64(int32(uint32(mem.Read(ea, 4)))))
				m &= m - 1
			}
		case isa.MemF32:
			for _, ea := range addrs {
				dv[lane(m)] = u64(float64(math.Float32frombits(uint32(mem.Read(ea, 4)))))
				m &= m - 1
			}
		default: // MemU8, MemI64, MemF64: the raw bytes, zero-extended
			for _, ea := range addrs {
				dv[lane(m)] = mem.Read(ea, size)
				m &= m - 1
			}
		}
	} else {
		sv := vec(w.regs, in.SrcB)
		m := active
		if in.Mem == isa.MemF32 {
			for _, ea := range addrs {
				mem.Write(ea, 4, uint64(math.Float32bits(float32(f64(sv[lane(m)])))))
				m &= m - 1
			}
		} else { // the register's low size bytes
			for _, ea := range addrs {
				mem.Write(ea, size, sv[lane(m)])
				m &= m - 1
			}
		}
	}
	// The lines buffer is block-owned scratch: the sink copies (or
	// column-encodes) it before the next record overwrites it.
	b.lineBuf = coalesce.LinesInto(b.lineBuf, addrs, size, b.l.LineBytes)
	rec.Lines = b.lineBuf
}
