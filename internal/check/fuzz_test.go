package check_test

import (
	"bytes"
	"testing"

	"gpumech/internal/check"
	"gpumech/internal/emu"
	"gpumech/internal/gen"
	"gpumech/internal/isa"
	"gpumech/internal/memory"
)

// decodeProgram derives a structurally plausible program from fuzz
// bytes: 8 bytes per instruction, fields reduced into their legal
// domains so the interesting rejections come from the dataflow passes
// rather than trivial range checks. A trailing Exit is always appended.
func decodeProgram(data []byte) *isa.Program {
	const numRegs, numPreds = 8, 4
	n := len(data) / 8
	if n > 16 {
		n = 16
	}
	instrs := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		b := data[i*8 : i*8+8]
		in := isa.Instr{
			Op:   isa.Op(b[0]) % (isa.OpExit + 1),
			Dst:  isa.Reg(b[1] % numRegs),
			SrcA: isa.Reg(b[2] % numRegs),
			SrcB: isa.Reg(b[3] % numRegs),
			SrcC: isa.Reg(b[4] % numRegs),
			PDst: isa.PredReg(b[5] % numPreds),
			Imm:  int64(int8(b[6])),
		}
		if b[5]&0x80 != 0 {
			in.Pred = isa.PredReg(b[5] % numPreds)
		} else {
			in.Pred = isa.PredNone
		}
		in.Pred2 = isa.PredNone
		if in.Op == isa.OpPAnd {
			// Only pand reads a second predicate; on any other op it
			// would be a read of a predicate nothing wrote, which the
			// checker rightly rejects.
			in.Pred2 = isa.PredReg(b[4] % numPreds)
		}
		in.Cmp = isa.Cmp(b[7] % 6)
		in.Mem = isa.MemType(b[7] % 5)
		in.Target = int(b[6]) % (n + 1)
		in.Reconv = int(b[7]) % (n + 1)
		if in.Op == isa.OpS2R {
			in.Imm = int64(b[6] % 7)
		}
		instrs = append(instrs, in)
	}
	instrs = append(instrs, isa.Instr{Op: isa.OpExit, Dst: isa.RegNone,
		SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone,
		PDst: isa.PredNone, Pred: isa.PredNone, Pred2: isa.PredNone})
	return &isa.Program{Name: "fuzz", Instrs: instrs, NumRegs: numRegs, NumPreds: numPreds}
}

// encodeSeed folds a program's leading instructions into the fuzz byte
// format — the lossy inverse of decodeProgram (registers collapse mod 8,
// predicates mod 4, one byte carries imm and target). Exactness is not
// the point: the seeds steer the mutator toward shapes it rarely
// assembles on its own.
func encodeSeed(prog *isa.Program) []byte {
	n := len(prog.Instrs)
	if n > 16 {
		n = 16
	}
	out := make([]byte, 0, n*8)
	for _, in := range prog.Instrs[:n] {
		var b [8]byte
		b[0] = byte(in.Op)
		b[1] = byte(in.Dst) % 8
		b[2] = byte(in.SrcA) % 8
		b[3] = byte(in.SrcB) % 8
		b[4] = byte(in.SrcC) % 8
		if in.Pred != isa.PredNone {
			b[5] = 0x80 | byte(in.Pred)%4
		} else {
			b[5] = byte(in.PDst) % 4
		}
		if in.Op == isa.OpBra {
			b[6] = byte(in.Target)
			b[7] = byte(in.Reconv)
		} else {
			b[6] = byte(in.Imm)
			b[7] = byte(in.Mem)
		}
		out = append(out, b[:]...)
	}
	return out
}

// FuzzEmuAcceptsVerifiedPrograms is the checker's soundness contract
// from the emulator's point of view: any program the static checker
// accepts (no error-severity findings) must emulate without panicking.
// Runtime errors (trace budget, barrier timeout) remain legal outcomes;
// crashing is not.
//
// It is also the parallel emulator's differential target. The launch has
// four blocks and runs sequentially, at two workers and at three: every
// run must return the same error text,
// or else the same trace encoding and the same final memory. Random
// programs load and store at lane- and block-dependent addresses, so one
// block range often reads what an earlier one wrote, and the sequential
// fallback is exercised here as no bundled kernel exercises it.
func FuzzEmuAcceptsVerifiedPrograms(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 2, 3, 0, 4, 0})                                          // movi
	f.Add([]byte{byte(isa.OpBra), 0, 0, 0, 0, 0x81, 1, 1, 2, 0, 1, 2, 3, 0, 4, 0}) // guarded bra
	f.Add([]byte{byte(isa.OpBar), 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(isa.OpLdS), 1, 2, 0, 0, 0, 8, 0})
	// Block 1 reads the word block 0 stores: r1 = ctaid, then
	// st.global [r1] <- r1 and ld.global r2 <- [r1-1].
	f.Add([]byte{
		byte(isa.OpS2R), 1, 0, 0, 0, 0, byte(isa.SrCtaid), 0,
		byte(isa.OpStG), 0, 1, 1, 0, 0, 0, 2,
		byte(isa.OpLdG), 2, 1, 0, 0, 0, 0xff, 2,
	})
	// A shared load through an address near MaxInt64, read back from
	// global memory so the checker cannot bound it: r0 = 0, r1 = 1<<63 - 2
	// via movi/shl/iaddi, st.global [r0] <- r1, ld.global r2 <- [r0],
	// then ld.shared r3 <- [r2]. The end of the access overflows int64;
	// the emulator must report it out of bounds rather than panic.
	f.Add([]byte{
		byte(isa.OpMovI), 0, 0, 0, 0, 0, 0, 0,
		byte(isa.OpMovI), 1, 0, 0, 0, 0, 1, 0,
		byte(isa.OpShl), 1, 1, 0, 0, 0, 63, 0,
		byte(isa.OpIAddI), 1, 1, 0, 0, 0, 0xfe, 0,
		byte(isa.OpStG), 0, 0, 1, 0, 0, 0, byte(isa.MemI64),
		byte(isa.OpLdG), 2, 0, 0, 0, 0, 0, byte(isa.MemI64),
		byte(isa.OpLdS), 3, 2, 0, 0, 0, 0, byte(isa.MemI32),
	})
	// Generator-driven seeds: every template of internal/gen (straight
	// line, if/else with reconvergence, counted loop, barrier phases),
	// folded down to the fuzz format. One seed per stream index covers
	// all four templates and all four memory patterns.
	for i := int64(0); i < 8; i++ {
		k, err := gen.Generate(1, i)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeSeed(k.Prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProgram(data)
		if err := prog.Validate(); err != nil {
			return
		}
		launch := &check.LaunchInfo{Blocks: 4, ThreadsPerBlock: 64, SharedBytes: 256}
		fs := check.Verify(prog, check.Options{Launch: launch})
		if fs.Err() != nil {
			return // checker rejected it; nothing to assert
		}
		// Checker-accepted: the emulator must not panic. Errors are fine,
		// but the worker count must not change any outcome.
		run := func(workers int) (enc []byte, mem *memory.Memory, err error) {
			mem = memory.New()
			k, err := emu.Run(emu.Launch{
				Prog:            prog,
				Blocks:          launch.Blocks,
				ThreadsPerBlock: launch.ThreadsPerBlock,
				SharedBytes:     launch.SharedBytes,
				Mem:             mem,
				MaxRecs:         100_000,
				Workers:         workers,
			})
			if err != nil {
				return nil, mem, err
			}
			var buf bytes.Buffer
			if err := k.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), mem, nil
		}
		seqEnc, seqMem, seqErr := run(1)
		for _, workers := range []int{2, 3} {
			parEnc, parMem, parErr := run(workers)
			switch {
			case seqErr != nil || parErr != nil:
				if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
					t.Fatalf("errors differ: 1 worker %v, %d workers %v", seqErr, workers, parErr)
				}
			case !bytes.Equal(seqEnc, parEnc):
				t.Fatalf("trace encodings differ between 1 and %d workers", workers)
			case !seqMem.Equal(parMem):
				t.Fatalf("final memory differs between 1 and %d workers", workers)
			}
		}
	})
}
