// Package isa defines the SIMT instruction set executed by the functional
// emulator (internal/emu) and analyzed by GPUMech.
//
// The ISA is register-based: every thread owns NumRegs 64-bit general
// registers and NumPreds 1-bit predicate registers. A warp executes one
// instruction at a time over all active lanes. Control divergence is
// expressed with predicated branches that carry an explicit reconvergence
// PC (the immediate post-dominator), which the emulator uses to maintain a
// SIMT reconvergence stack. Programs are normally produced with Builder,
// whose structured control-flow helpers guarantee well-formed
// reconvergence information.
package isa

import (
	"fmt"
	"strings"
)

// Reg identifies a general-purpose 64-bit register of a thread.
type Reg uint8

// PredReg identifies a 1-bit predicate register of a thread.
type PredReg uint8

// Sentinels for "no register".
const (
	RegNone  Reg     = 0xFF
	PredNone PredReg = 0xFF
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. The comment gives the semantics with D = destination register,
// A/B/C = source registers, I = immediate.
const (
	OpNop Op = iota

	// Moves and integer arithmetic (treat register contents as int64).
	OpMovI  // D = I
	OpMovF  // D = float(I as float64 bits, via FImm)
	OpMov   // D = A
	OpIAdd  // D = A + B
	OpIAddI // D = A + I
	OpISub  // D = A - B
	OpIMul  // D = A * B
	OpIMulI // D = A * I
	OpIMad  // D = A*B + C
	OpIMin  // D = min(A, B)
	OpIMax  // D = max(A, B)
	OpAnd   // D = A & B
	OpAndI  // D = A & I
	OpOr    // D = A | B
	OpXor   // D = A ^ B
	OpShl   // D = A << (I & 63)
	OpShr   // D = A >> (I & 63) (arithmetic)
	OpRem   // D = A % B (B != 0; 0 otherwise)
	OpRemI  // D = A % I
	OpIDiv  // D = A / B (B != 0; 0 otherwise)
	OpIDivI // D = A / I

	// Floating point (treat register contents as float64 bits).
	OpFAdd // D = A + B
	OpFSub // D = A - B
	OpFMul // D = A * B
	OpFFma // D = A*B + C
	OpFMin // D = min(A, B)
	OpFMax // D = max(A, B)
	OpFNeg // D = -A
	OpFAbs // D = |A|
	OpI2F  // D = float64(int64(A))
	OpF2I  // D = int64(trunc(float64(A)))

	// Special function unit operations (transcendental, long latency).
	OpFDiv  // D = A / B
	OpFSqrt // D = sqrt(A)
	OpFRcp  // D = 1 / A
	OpFExp  // D = exp(A)
	OpFLog  // D = log(|A|+tiny)
	OpFSin  // D = sin(A)

	// Predicate setting and selection. Cmp holds the comparison.
	OpISetp // PD = cmp(int64(A), int64(B))
	OpFSetp // PD = cmp(float64(A), float64(B))
	OpPAnd  // PD = PA && PB  (PA = Pred field, PB = Pred2 field)
	OpPNot  // PD = !PA
	OpSelp  // D = PA ? A : B

	// Special register read: D = special(SpecialKind in Imm).
	OpS2R

	// Memory. Effective address = int64(A) + Imm. MemType selects the
	// element width and interpretation.
	OpLdG // D = load  global[A+I]
	OpStG //     store global[A+I] = B
	OpLdS // D = load  shared[A+I]
	OpStS //     store shared[A+I] = B

	// Control flow.
	OpBra  // branch to Target; Reconv is the immediate post-dominator
	OpBar  // block-wide barrier
	OpExit // thread (warp) termination

	opCount
)

// Cmp enumerates comparison operators for OpISetp / OpFSetp.
type Cmp uint8

const (
	CmpEQ Cmp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c Cmp) String() string {
	switch c {
	case CmpEQ:
		return "eq"
	case CmpNE:
		return "ne"
	case CmpLT:
		return "lt"
	case CmpLE:
		return "le"
	case CmpGT:
		return "gt"
	case CmpGE:
		return "ge"
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// MemType selects the width and interpretation of a memory access.
type MemType uint8

const (
	MemI32 MemType = iota // 4 bytes, sign-extended integer
	MemF32                // 4 bytes, float32 widened to float64 in registers
	MemI64                // 8 bytes, integer
	MemF64                // 8 bytes, float64
	MemU8                 // 1 byte, zero-extended
)

// Bytes returns the access width in bytes.
func (t MemType) Bytes() int {
	switch t {
	case MemU8:
		return 1
	case MemI64, MemF64:
		return 8
	default:
		return 4
	}
}

// SpecialKind enumerates the special registers readable with OpS2R.
type SpecialKind uint8

const (
	SrTid      SpecialKind = iota // thread index within the block (x)
	SrNtid                        // threads per block (x)
	SrCtaid                       // block index within the grid (x)
	SrNctaid                      // blocks in the grid (x)
	SrLaneID                      // lane index within the warp
	SrWarpID                      // warp index within the block
	SrGlobalID                    // ctaid*ntid + tid convenience register
)

// Class is the latency/behaviour class of an instruction, used by the
// timing simulator and by the interval model's per-PC latency table.
type Class uint8

const (
	ClassALU  Class = iota // short integer / move / predicate ops
	ClassFP                // pipelined floating point
	ClassSFU               // special function unit
	ClassGMem              // global memory access
	ClassSMem              // shared memory access
	ClassCtrl              // branches
	ClassBar               // barrier
	ClassExit              // exit
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassFP:
		return "fp"
	case ClassSFU:
		return "sfu"
	case ClassGMem:
		return "gmem"
	case ClassSMem:
		return "smem"
	case ClassCtrl:
		return "ctrl"
	case ClassBar:
		return "bar"
	case ClassExit:
		return "exit"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Class returns the latency class of the opcode.
func (o Op) Class() Class {
	switch o {
	case OpFAdd, OpFSub, OpFMul, OpFFma, OpFMin, OpFMax, OpFNeg, OpFAbs, OpI2F, OpF2I:
		return ClassFP
	case OpFDiv, OpFSqrt, OpFRcp, OpFExp, OpFLog, OpFSin:
		return ClassSFU
	case OpLdG, OpStG:
		return ClassGMem
	case OpLdS, OpStS:
		return ClassSMem
	case OpBra:
		return ClassCtrl
	case OpBar:
		return ClassBar
	case OpExit:
		return ClassExit
	default:
		return ClassALU
	}
}

// IsMem reports whether the opcode accesses memory (global or shared).
func (o Op) IsMem() bool {
	return o == OpLdG || o == OpStG || o == OpLdS || o == OpStS
}

// IsLoad reports whether the opcode is a load.
func (o Op) IsLoad() bool { return o == OpLdG || o == OpLdS }

// IsStore reports whether the opcode is a store.
func (o Op) IsStore() bool { return o == OpStG || o == OpStS }

// IsGlobal reports whether the opcode accesses global memory.
func (o Op) IsGlobal() bool { return o == OpLdG || o == OpStG }

var opNames = map[Op]string{
	OpNop: "nop", OpMovI: "movi", OpMovF: "movf", OpMov: "mov",
	OpIAdd: "iadd", OpIAddI: "iaddi", OpISub: "isub", OpIMul: "imul",
	OpIMulI: "imuli", OpIMad: "imad", OpIMin: "imin", OpIMax: "imax",
	OpAnd: "and", OpAndI: "andi", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpRem: "rem", OpRemI: "remi",
	OpIDiv: "idiv", OpIDivI: "idivi",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFFma: "ffma",
	OpFMin: "fmin", OpFMax: "fmax", OpFNeg: "fneg", OpFAbs: "fabs",
	OpI2F: "i2f", OpF2I: "f2i",
	OpFDiv: "fdiv", OpFSqrt: "fsqrt", OpFRcp: "frcp", OpFExp: "fexp",
	OpFLog: "flog", OpFSin: "fsin",
	OpISetp: "isetp", OpFSetp: "fsetp", OpPAnd: "pand", OpPNot: "pnot",
	OpSelp: "selp", OpS2R: "s2r",
	OpLdG: "ldg", OpStG: "stg", OpLdS: "lds", OpStS: "sts",
	OpBra: "bra", OpBar: "bar", OpExit: "exit",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one static instruction. Unused fields hold their sentinel or
// zero values. PC is implicit (the index in Program.Instrs).
type Instr struct {
	Op   Op
	Dst  Reg // destination register, RegNone if none
	SrcA Reg
	SrcB Reg
	SrcC Reg

	Imm  int64   // integer immediate (also SpecialKind for OpS2R)
	FImm float64 // float immediate for OpMovF

	Cmp     Cmp     // comparison for setp ops
	PDst    PredReg // predicate destination for setp/pand/pnot
	Pred    PredReg // guard predicate (PredNone = unconditional); src for selp/pnot
	PredNeg bool    // guard on !Pred instead of Pred
	Pred2   PredReg // second predicate source for OpPAnd

	Mem MemType // memory access type

	Target int // branch target PC
	Reconv int // immediate post-dominator PC for OpBra
}

// SrcRegs appends the general registers read by the instruction to dst and
// returns it. It is used to build dependency chains.
func (in Instr) SrcRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RegNone {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case OpMovI, OpMovF, OpS2R, OpNop, OpBar, OpExit:
		// no register sources
	case OpBra:
		// branch reads only its guard predicate
	case OpStG, OpStS:
		add(in.SrcA) // address base
		add(in.SrcB) // value
	default:
		add(in.SrcA)
		add(in.SrcB)
		add(in.SrcC)
	}
	return dst
}

// String renders the instruction in a compact assembly-like form.
func (in Instr) String() string {
	s := ""
	if in.Pred != PredNone {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		s += fmt.Sprintf("@%sp%d ", neg, in.Pred)
	}
	s += in.Op.String()
	switch in.Op {
	case OpISetp, OpFSetp:
		s += fmt.Sprintf(".%s p%d, r%d, r%d", in.Cmp, in.PDst, in.SrcA, in.SrcB)
	case OpMovI:
		s += fmt.Sprintf(" r%d, %d", in.Dst, in.Imm)
	case OpMovF:
		s += fmt.Sprintf(" r%d, %g", in.Dst, in.FImm)
	case OpS2R:
		s += fmt.Sprintf(" r%d, sr%d", in.Dst, in.Imm)
	case OpLdG, OpLdS:
		s += fmt.Sprintf(" r%d, [r%d+%d]", in.Dst, in.SrcA, in.Imm)
	case OpStG, OpStS:
		s += fmt.Sprintf(" [r%d+%d], r%d", in.SrcA, in.Imm, in.SrcB)
	case OpBra:
		s += fmt.Sprintf(" %d (reconv %d)", in.Target, in.Reconv)
	case OpBar, OpExit, OpNop:
	default:
		if in.Dst != RegNone {
			s += fmt.Sprintf(" r%d", in.Dst)
		}
		for _, r := range in.SrcRegs(nil) {
			s += fmt.Sprintf(", r%d", r)
		}
		if in.Op == OpIAddI || in.Op == OpIMulI || in.Op == OpAndI || in.Op == OpShl || in.Op == OpShr || in.Op == OpRemI {
			s += fmt.Sprintf(", %d", in.Imm)
		}
	}
	return s
}

// Program is a complete kernel program.
type Program struct {
	Name     string
	Instrs   []Instr
	NumRegs  int // general registers per thread
	NumPreds int // predicate registers per thread
}

// Validate checks structural well-formedness: opcode ranges, register
// indices within the declared file sizes, predicate operands present
// where an instruction reads or writes one, branch targets and
// reconvergence points in range, and termination with OpExit.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program %q has no instructions", p.Name)
	}
	if p.NumRegs <= 0 || p.NumRegs > 255 {
		return fmt.Errorf("isa: program %q: NumRegs %d out of range", p.Name, p.NumRegs)
	}
	if p.NumPreds <= 0 || p.NumPreds > 255 {
		return fmt.Errorf("isa: program %q: NumPreds %d out of range", p.Name, p.NumPreds)
	}
	checkReg := func(pc int, r Reg) error {
		if r != RegNone && int(r) >= p.NumRegs {
			return fmt.Errorf("isa: program %q pc %d: register r%d out of range (%d regs)", p.Name, pc, r, p.NumRegs)
		}
		return nil
	}
	checkPred := func(pc int, r PredReg) error {
		if r != PredNone && int(r) >= p.NumPreds {
			return fmt.Errorf("isa: program %q pc %d: predicate p%d out of range (%d preds)", p.Name, pc, r, p.NumPreds)
		}
		return nil
	}
	sawExit := false
	for pc, in := range p.Instrs {
		if in.Op >= opCount {
			return fmt.Errorf("isa: program %q pc %d: invalid opcode %d", p.Name, pc, in.Op)
		}
		for _, r := range []Reg{in.Dst, in.SrcA, in.SrcB, in.SrcC} {
			if err := checkReg(pc, r); err != nil {
				return err
			}
		}
		for _, r := range []PredReg{in.PDst, in.Pred, in.Pred2} {
			if err := checkPred(pc, r); err != nil {
				return err
			}
		}
		if err := p.checkPredOperands(pc, &in); err != nil {
			return err
		}
		if in.Op == OpBra {
			if in.Target < 0 || in.Target > len(p.Instrs) {
				return fmt.Errorf("isa: program %q pc %d: branch target %d out of range", p.Name, pc, in.Target)
			}
			if in.Reconv < 0 || in.Reconv > len(p.Instrs) {
				return fmt.Errorf("isa: program %q pc %d: reconvergence point %d out of range", p.Name, pc, in.Reconv)
			}
		}
		if in.Op == OpExit {
			sawExit = true
		}
	}
	if !sawExit {
		return fmt.Errorf("isa: program %q does not contain an exit instruction", p.Name)
	}
	return nil
}

// checkPredOperands rejects predicate instructions missing a predicate
// operand they read or write: the emulator indexes the predicate file
// with it, so PredNone there is not "no predicate" but a bad index.
func (p *Program) checkPredOperands(pc int, in *Instr) error {
	missing := ""
	switch in.Op {
	case OpISetp, OpFSetp:
		if in.PDst == PredNone {
			missing = "destination"
		}
	case OpPNot, OpPAnd:
		if in.PDst == PredNone {
			missing = "destination"
		} else if in.Pred == PredNone || in.Op == OpPAnd && in.Pred2 == PredNone {
			missing = "source"
		}
	case OpSelp:
		if in.Pred == PredNone {
			missing = "selector"
		}
	}
	if missing != "" {
		return fmt.Errorf("isa: program %q pc %d: %s has no %s predicate", p.Name, pc, in.Op, missing)
	}
	return nil
}

// Disassemble renders the program as a numbered listing.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q: %d instructions, %d regs, %d preds\n",
		p.Name, len(p.Instrs), p.NumRegs, p.NumPreds)
	for pc, in := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", pc, in.String())
	}
	return b.String()
}

// StaticMemPCs returns the PCs of global memory instructions, in order.
func (p *Program) StaticMemPCs() []int {
	var pcs []int
	for pc, in := range p.Instrs {
		if in.Op.IsGlobal() {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}
