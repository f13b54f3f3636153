package isa

import (
	"strings"
	"testing"
)

func TestOpcodeClasses(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{OpIAdd, ClassALU}, {OpMovI, ClassALU}, {OpISetp, ClassALU},
		{OpIDiv, ClassALU}, {OpSelp, ClassALU},
		{OpFAdd, ClassFP}, {OpFFma, ClassFP}, {OpI2F, ClassFP},
		{OpFDiv, ClassSFU}, {OpFSqrt, ClassSFU}, {OpFExp, ClassSFU}, {OpFSin, ClassSFU},
		{OpLdG, ClassGMem}, {OpStG, ClassGMem},
		{OpLdS, ClassSMem}, {OpStS, ClassSMem},
		{OpBra, ClassCtrl}, {OpBar, ClassBar}, {OpExit, ClassExit},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%s class = %s, want %s", c.op, got, c.want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpLdG.IsMem() || !OpStS.IsMem() || OpIAdd.IsMem() {
		t.Error("IsMem wrong")
	}
	if !OpLdG.IsLoad() || OpStG.IsLoad() {
		t.Error("IsLoad wrong")
	}
	if !OpStG.IsStore() || OpLdS.IsStore() {
		t.Error("IsStore wrong")
	}
	if !OpLdG.IsGlobal() || OpLdS.IsGlobal() {
		t.Error("IsGlobal wrong")
	}
}

func TestMemTypeBytes(t *testing.T) {
	cases := map[MemType]int{MemU8: 1, MemI32: 4, MemF32: 4, MemI64: 8, MemF64: 8}
	for mt, want := range cases {
		if got := mt.Bytes(); got != want {
			t.Errorf("%d.Bytes() = %d, want %d", mt, got, want)
		}
	}
}

func TestSrcRegs(t *testing.T) {
	in := Instr{Op: OpIMad, Dst: 1, SrcA: 2, SrcB: 3, SrcC: 4}
	got := in.SrcRegs(nil)
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("IMad sources = %v", got)
	}
	st := Instr{Op: OpStG, SrcA: 5, SrcB: 6, SrcC: RegNone}
	if got := st.SrcRegs(nil); len(got) != 2 {
		t.Errorf("StG sources = %v, want address+value", got)
	}
	movi := Instr{Op: OpMovI, Dst: 1, SrcA: 9, SrcB: RegNone, SrcC: RegNone}
	if got := movi.SrcRegs(nil); len(got) != 0 {
		t.Errorf("MovI must have no register sources, got %v", got)
	}
	bra := Instr{Op: OpBra, SrcA: 3, SrcB: RegNone, SrcC: RegNone}
	if got := bra.SrcRegs(nil); len(got) != 0 {
		t.Errorf("Bra must have no register sources, got %v", got)
	}
}

func TestProgramValidate(t *testing.T) {
	good := &Program{Name: "g", NumRegs: 4, NumPreds: 1, Instrs: []Instr{
		{Op: OpMovI, Dst: 1, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, Pred: PredNone, Pred2: PredNone},
		{Op: OpExit, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, Pred: PredNone, Pred2: PredNone},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good program rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"empty", func(p *Program) { p.Instrs = nil }},
		{"reg out of range", func(p *Program) { p.Instrs[0].Dst = 10 }},
		{"pred out of range", func(p *Program) { p.Instrs[0].Pred = 3 }},
		{"no exit", func(p *Program) { p.Instrs = p.Instrs[:1] }},
		{"bad branch target", func(p *Program) {
			p.Instrs[0] = Instr{Op: OpBra, Target: 99, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, Pred: PredNone, Pred2: PredNone}
		}},
		{"bad reconv", func(p *Program) {
			p.Instrs[0] = Instr{Op: OpBra, Target: 1, Reconv: -1, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, Pred: PredNone, Pred2: PredNone}
		}},
		{"zero regs", func(p *Program) { p.NumRegs = 0 }},
		// Predicate operands the emulator indexes the predicate file with.
		{"setp without destination", func(p *Program) {
			p.Instrs[0] = Instr{Op: OpISetp, SrcA: 1, SrcB: 1, Dst: RegNone, SrcC: RegNone, PDst: PredNone, Pred: PredNone, Pred2: PredNone}
		}},
		{"pnot without source", func(p *Program) {
			p.Instrs[0] = Instr{Op: OpPNot, PDst: 0, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Pred: PredNone, Pred2: PredNone}
		}},
		{"pand without second source", func(p *Program) {
			p.Instrs[0] = Instr{Op: OpPAnd, PDst: 0, Pred: 0, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Pred2: PredNone}
		}},
		{"selp without selector", func(p *Program) {
			p.Instrs[0] = Instr{Op: OpSelp, Dst: 1, SrcA: 1, SrcB: 1, SrcC: RegNone, PDst: PredNone, Pred: PredNone, Pred2: PredNone}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{Name: "g", NumRegs: 4, NumPreds: 1, Instrs: append([]Instr(nil), good.Instrs...)}
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("invalid program accepted")
			}
		})
	}
}

func TestStaticMemPCs(t *testing.T) {
	b := NewBuilder("m")
	r := b.Reg()
	b.MovI(r, 0)
	b.LdG(r, r, 0, MemF32)
	b.LdS(r, r, 0, MemF32) // shared: not a global PC
	b.StG(r, 0, r, MemF32)
	p := b.MustBuild()
	pcs := p.StaticMemPCs()
	if len(pcs) != 2 || pcs[0] != 1 || pcs[1] != 3 {
		t.Errorf("StaticMemPCs = %v, want [1 3]", pcs)
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: OpLdG, Dst: 3, SrcA: 2, SrcB: RegNone, SrcC: RegNone, Imm: 8, PDst: PredNone, Pred: PredNone, Pred2: PredNone}
	if s := in.String(); !strings.Contains(s, "ldg") || !strings.Contains(s, "r3") {
		t.Errorf("String = %q", s)
	}
	in.Pred, in.PredNeg = 1, true
	if s := in.String(); !strings.Contains(s, "@!p1") {
		t.Errorf("guarded String = %q", s)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{ClassALU: "alu", ClassGMem: "gmem", ClassBar: "bar"} {
		if c.String() != want {
			t.Errorf("%d = %q, want %q", c, c.String(), want)
		}
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder("dis")
	r := b.Reg()
	b.MovI(r, 7)
	b.LdG(r, r, 4, MemF32)
	p := b.MustBuild()
	out := p.Disassemble()
	for _, want := range []string{"program \"dis\"", "movi r0, 7", "ldg r0, [r0+4]", "exit"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}
