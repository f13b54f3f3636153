package emu_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpumech/internal/emu"
	"gpumech/internal/isa"
	"gpumech/internal/kernels"
	"gpumech/internal/memory"
)

// outcome is everything one emulation returns that must not depend on
// the worker count: the v2 trace encoding, the final launch memory and
// the error text.
type outcome struct {
	enc []byte
	mem *memory.Memory
	err error
	st  emu.Stats
}

// emulate runs l at the given worker count. l.Mem must be fresh: the run
// leaves its final contents there.
func emulate(t *testing.T, l emu.Launch, workers int) outcome {
	t.Helper()
	if l.Mem == nil {
		l.Mem = memory.New()
	}
	var o outcome
	l.Workers, l.Stats = workers, &o.st
	k, err := emu.Run(l)
	o.mem, o.err = l.Mem, err
	if err == nil {
		var buf bytes.Buffer
		if err := k.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		o.enc = buf.Bytes()
	}
	return o
}

// same fails t unless got is the sequential outcome want.
func same(t *testing.T, what string, want, got outcome) {
	t.Helper()
	switch {
	case (want.err == nil) != (got.err == nil) || want.err != nil && want.err.Error() != got.err.Error():
		t.Errorf("%s: error %v, sequential %v", what, got.err, want.err)
	case !bytes.Equal(want.enc, got.enc):
		t.Errorf("%s: trace encoding differs from the sequential run (%d vs %d bytes)", what, len(got.enc), len(want.enc))
	case !want.mem.Equal(got.mem):
		t.Errorf("%s: final memory differs from the sequential run", what)
	}
}

// TestWorkersByteIdentical emulates every bundled kernel at its default
// grid, at 128, 100 and 64 blocks, sequentially and at every worker count
// from 2 to 8: the v2 trace encodings and the final memory must be
// identical. The worker counts put block range boundaries at every kind
// of offset, not only at multiples of 8 blocks. The bundled kernels never
// communicate between blocks, so the concurrent runs must also stand
// without falling back; the test lists every run that fell back.
func TestWorkersByteIdentical(t *testing.T) {
	names := kernels.Names()
	grids := []int{0, 128, 100, 64}
	workers := []int{2, 3, 4, 5, 6, 7, 8}
	if testing.Short() || raceEnabled {
		// 1,400 traces take minutes under the race detector; a sample of
		// kernels at one grid still races every overlay path.
		names, grids, workers = sampleEvery(names, 10), []int{64}, []int{3, 4}
	}
	var fellBack []string
	for _, name := range names {
		info, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, blocks := range grids {
			if blocks == 0 {
				blocks = kernels.DefaultBlocks(info.WarpsPerBlock)
			}
			launch := func() emu.Launch {
				l, err := info.EmuLaunch(kernels.Scale{Blocks: blocks, Seed: 1}, 128)
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			want := emulate(t, launch(), 1)
			if want.err != nil {
				t.Fatalf("%s/%d: %v", name, blocks, want.err)
			}
			for _, w := range workers {
				what := fmt.Sprintf("%s/%d blocks/%d workers", name, blocks, w)
				got := emulate(t, launch(), w)
				same(t, what, want, got)
				if got.st.Workers != w {
					t.Errorf("%s: ran %d block ranges", what, got.st.Workers)
				}
				if got.st.Fallback != emu.FallbackNone {
					fellBack = append(fellBack, fmt.Sprintf("%s: %v", what, got.st.Fallback))
				}
			}
		}
	}
	if len(fellBack) > 0 {
		t.Errorf("%d concurrent runs fell back to the sequential emulator:\n%s",
			len(fellBack), strings.Join(fellBack, "\n"))
	}
}

func sampleEvery(names []string, n int) []string {
	var out []string
	for i := 0; i < len(names); i += n {
		out = append(out, names[i])
	}
	return out
}

const (
	outA = 1 << 20 // block 0's output
	outB = 2 << 20 // block 1's output
)

// laneAddr returns base + 4*tid in a fresh register.
func laneAddr(b *isa.Builder, base int64) isa.Reg {
	addr := b.Reg()
	b.Shl(addr, b.Tid(), 2)
	b.IAddI(addr, addr, base)
	return addr
}

// TestCrossRangeReadFallsBack runs a kernel whose block 1 reads what
// block 0 wrote. With two workers, block 1's range sees the launch
// memory without block 0's writes, so the concurrent run must be
// discarded for a sequential one that gives block 1 block 0's values.
func TestCrossRangeReadFallsBack(t *testing.T) {
	b := isa.NewBuilder("handoff")
	first := b.Pred()
	b.ISetpI(first, isa.CmpEQ, b.Ctaid(), 0)
	b.IfElse(first, func() {
		v := b.Reg()
		b.IAddI(v, b.Tid(), 7)
		b.StG(laneAddr(b, outA), 0, v, isa.MemI32)
	}, func() {
		v := b.Reg()
		b.LdG(v, laneAddr(b, outA), 0, isa.MemI32)
		b.IAddI(v, v, 1)
		b.StG(laneAddr(b, outB), 0, v, isa.MemI32)
	})
	l := emu.Launch{Prog: b.MustBuild(), Blocks: 2, ThreadsPerBlock: 64}

	want := emulate(t, l, 1)
	got := emulate(t, l, 2)
	same(t, "handoff", want, got)
	if got.st.Fallback != emu.FallbackConflict {
		t.Errorf("fallback = %v, want conflict", got.st.Fallback)
	}
	for tid, v := range got.mem.I32Slice(outB, 64) {
		if v != int32(tid+8) {
			t.Fatalf("thread %d of block 1 read %d, want block 0's %d plus one", tid, v, tid+7)
		}
	}
}

// TestSharedPageWritesMerge has every block write its own 4-byte slot of
// one page, over launch memory that already holds data there, as the
// reduction kernels store their partial sums. The ranges read nothing
// another wrote, so the run stands, and the merge must keep every
// block's bytes and the bytes no block wrote.
func TestSharedPageWritesMerge(t *testing.T) {
	b := isa.NewBuilder("partials")
	lane0 := b.Pred()
	b.ISetpI(lane0, isa.CmpEQ, b.Tid(), 0)
	b.If(lane0, func() {
		cta := b.Ctaid()
		addr := b.Reg()
		b.Shl(addr, cta, 2)
		b.IAddI(addr, addr, outA)
		v := b.Reg()
		b.IMulI(v, cta, 3)
		b.StG(addr, 0, v, isa.MemI32)
	})
	fresh := func() emu.Launch {
		m := memory.New()
		for i := uint64(0); i < 64; i++ {
			m.SetI32(outA+4*i, -1)
		}
		return emu.Launch{Prog: b.MustBuild(), Blocks: 8, ThreadsPerBlock: 32, Mem: m}
	}
	want := emulate(t, fresh(), 1)
	got := emulate(t, fresh(), 4)
	same(t, "partials", want, got)
	if got.st.Fallback != emu.FallbackNone {
		t.Errorf("fallback = %v, want none", got.st.Fallback)
	}
	vals := got.mem.I32Slice(outA, 10)
	for i, v := range vals {
		wantV := int32(3 * i)
		if i >= 8 {
			wantV = -1
		}
		if v != wantV {
			t.Errorf("slot %d = %d, want %d", i, v, wantV)
		}
	}
}

// lastBlockFaults builds a kernel whose last block (of eight) stores
// outside its shared segment.
func lastBlockFaults() *isa.Program {
	b := isa.NewBuilder("lastfault")
	addr := b.Reg()
	b.IDivI(addr, b.Ctaid(), 7) // 1 in block 7 only
	b.IMulI(addr, addr, 4096)
	off := b.Reg()
	b.Shl(off, b.Tid(), 2)
	b.IAdd(addr, addr, off)
	b.StS(addr, 0, off, isa.MemI32)
	return b.MustBuild()
}

// TestLastBlockFaultMatchesSequential: a shared-memory fault in the last
// block fails the last range; the launch reruns sequentially and returns
// the sequential error verbatim, with its block, warp and PC.
func TestLastBlockFaultMatchesSequential(t *testing.T) {
	l := emu.Launch{Prog: lastBlockFaults(), Blocks: 8, ThreadsPerBlock: 64, SharedBytes: 256}
	want := emulate(t, l, 1)
	if want.err == nil || !strings.Contains(want.err.Error(), "outside 256-byte segment") {
		t.Fatalf("sequential error %v, want a shared-memory fault", want.err)
	}
	got := emulate(t, l, 4)
	same(t, "lastfault", want, got)
	if got.st.Fallback != emu.FallbackError {
		t.Errorf("fallback = %v, want error", got.st.Fallback)
	}
}

// TestLastBlockBudgetMatchesSequential: only the last block loops long
// enough to exceed MaxRecs. The ranges share one budget, so the
// concurrent run gives up after MaxRecs records in total, and the
// sequential rerun returns the sequential error verbatim.
func TestLastBlockBudgetMatchesSequential(t *testing.T) {
	b := isa.NewBuilder("lastrunaway")
	last := b.Pred()
	b.ISetpI(last, isa.CmpEQ, b.Ctaid(), 7)
	n := b.Reg()
	b.Selp(n, last, b.ImmReg(100_000), b.ImmReg(10))
	v, i := b.ImmReg(0), b.Reg()
	b.ForN(i, n, func() { b.IAddI(v, v, 1) })
	l := emu.Launch{Prog: b.MustBuild(), Blocks: 8, ThreadsPerBlock: 64, MaxRecs: 20_000}

	want := emulate(t, l, 1)
	if want.err == nil || !strings.Contains(want.err.Error(), "trace exceeds 20000 records") {
		t.Fatalf("sequential error %v, want the record cap", want.err)
	}
	got := emulate(t, l, 4)
	same(t, "lastrunaway", want, got)
	if got.st.Fallback != emu.FallbackBudget {
		t.Errorf("fallback = %v, want budget", got.st.Fallback)
	}
}

// TestOneWorkerRunsSequentially pins when the sequential emulator runs:
// one worker, or one block.
func TestOneWorkerRunsSequentially(t *testing.T) {
	b := isa.NewBuilder("tiny")
	b.StG(laneAddr(b, outA), 0, b.Tid(), isa.MemI32)
	prog := b.MustBuild()
	for _, tc := range []struct{ workers, blocks, want int }{
		{1, 8, 1}, {4, 1, 1}, {4, 2, 2}, {4, 8, 4},
	} {
		got := emulate(t, emu.Launch{Prog: prog, Blocks: tc.blocks, ThreadsPerBlock: 32}, tc.workers)
		if got.err != nil || got.st.Workers != tc.want || got.st.Fallback != emu.FallbackNone {
			t.Errorf("workers %d, blocks %d: stats %+v, err %v; want %d workers", tc.workers, tc.blocks, got.st, got.err, tc.want)
		}
	}
}

// BenchmarkRunWorkers emulates the cold-path kernels of the
// first_contact benchmark at 128 blocks, sequentially and over two
// block ranges. Building each launch's memory is left out of the time.
func BenchmarkRunWorkers(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var insts int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var ls []emu.Launch
				for _, name := range []string{"sdk_transpose_naive", "rodinia_hotspot", "sdk_scan"} {
					info, err := kernels.Get(name)
					if err != nil {
						b.Fatal(err)
					}
					l, err := info.EmuLaunch(kernels.Scale{Blocks: 128, Seed: 1}, 128)
					if err != nil {
						b.Fatal(err)
					}
					l.Workers = workers
					ls = append(ls, l)
				}
				b.StartTimer()
				insts = 0
				for _, l := range ls {
					k, err := emu.Run(l)
					if err != nil {
						b.Fatal(err)
					}
					insts += k.TotalInsts()
				}
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
		})
	}
}
