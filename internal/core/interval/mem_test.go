package interval

import (
	"fmt"
	"testing"

	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// noStallColWarp builds a columnar warp of n records with no RAW stalls
// (no instruction reads a register), so the profile is a single interval
// regardless of n — the interval count cannot confound the memory
// measurement below.
func noStallColWarp(tb testing.TB, n int) *trace.WarpTrace {
	var b trace.ColBuilder
	for i := 0; i < n; i++ {
		var r trace.Rec
		if i%8 == 0 {
			r = rec(1, isa.OpLdG, isa.Reg(2+i%4))
			r.Mem = isa.MemF32
			r.Lines = []uint64{uint64(i) * 128}
		} else {
			r = rec(0, isa.OpMovI, isa.Reg(2+i%4))
		}
		if err := b.Append(&r); err != nil {
			tb.Fatal(err)
		}
	}
	return &trace.WarpTrace{ColWarp: b.Finish()}
}

// TestBuildAllocsIndependentOfLength is the O(window) gate: Build over a
// columnar warp allocates a fixed number of times — per-register state,
// the profile, the cursor — with no component proportional to the trace
// length. A record-indexed look-back (the old design) fails this
// immediately.
func TestBuildAllocsIndependentOfLength(t *testing.T) {
	tbl := table(1, 8)
	measure := func(w *trace.WarpTrace) float64 {
		return testing.AllocsPerRun(10, func() {
			p, err := Build(w, 16, 1, tbl)
			if err != nil || p.Insts == 0 {
				t.Fatalf("build failed: %v", err)
			}
		})
	}
	short := measure(noStallColWarp(t, 2_000))
	long := measure(noStallColWarp(t, 200_000))
	if short != long {
		t.Errorf("allocations grow with trace length: %.0f allocs at 2k records, %.0f at 200k", short, long)
	}
	if long > 32 {
		t.Errorf("Build allocates %.0f times, want a small constant", long)
	}
}

// BenchmarkBuildCursorLength shows bytes/op staying flat as the trace
// grows 100x — the acceptance benchmark for the streaming refactor.
func BenchmarkBuildCursorLength(b *testing.B) {
	tbl := table(1, 8)
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		w := noStallColWarp(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(w, 16, 1, tbl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
