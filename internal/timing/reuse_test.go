package timing

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"gpumech/internal/config"
	"gpumech/internal/kernels"
	"gpumech/internal/trace"
)

// TestBlockReuseMatchesFreshBlocks runs bundled kernels over several
// configurations under both policies, once with every admission given new
// block state and then twice more in two different orders with drained
// blocks reused, and requires every timing.Result to match the fresh run
// in every field. State leaking through a reused warp slab, scoreboard,
// trace cursor or wake stamp, or through a stale greedy warp, moves a
// cycle here. Two cores give each core 24 blocks of four warps, so every
// residency admits at least 12 blocks after the first drain.
func TestBlockReuseMatchesFreshBlocks(t *testing.T) {
	const blocks = 48
	base := config.Baseline()
	base.Cores = 2
	cfgs := []config.Config{base, base.WithWarps(16), base.WithWarps(48), base.WithMSHRs(8), base.WithSFUs(4)}
	type point struct {
		name string
		tr   *trace.Kernel
		cfg  config.Config
		pol  Policy
	}
	var points []point
	for _, name := range []string{"sdk_reduction", "rodinia_hotspot", "micro_pointer_chase", "sdk_blackscholes"} {
		info, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := info.Trace(kernels.Scale{Blocks: blocks, Seed: 1}, base.L1LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range cfgs {
			for _, pol := range []Policy{RR, GTO} {
				points = append(points, point{fmt.Sprintf("%s/cfg%d/%s", name, ci, pol), tr, cfg, pol})
			}
		}
	}
	run := func(p point, fresh bool) *Result {
		t.Helper()
		s, err := newSim(p.tr, p.cfg, p.pol)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		s.freshBlocks = fresh
		r, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		return r
	}
	want := make([]*Result, len(points))
	for i, p := range points {
		want[i] = run(p, true)
	}
	check := func(order string, i int) {
		if got, p := run(points[i], false), points[i]; !resultsEqual(got, want[i]) {
			t.Errorf("%s order, %s: reused blocks give %+v, fresh blocks %+v", order, p.name, got, want[i])
		}
	}
	for i := range points {
		check("forward", i)
	}
	// Config-major and reversed, so each run follows different ones.
	order := make([]int, 0, len(points))
	for pi := 2*len(cfgs) - 1; pi >= 0; pi-- {
		for i := pi; i < len(points); i += 2 * len(cfgs) {
			order = append(order, i)
		}
	}
	slices.Reverse(order)
	for _, i := range order {
		check("config-major", i)
	}
}

// resultsEqual compares every field of two results, floats by value
// (both sides compute them with the same operations).
func resultsEqual(a, b *Result) bool {
	return a.Cycles == b.Cycles && a.Insts == b.Insts && a.CPI == b.CPI && a.IPC == b.IPC &&
		a.MeanCoreCPI == b.MeanCoreCPI && slices.Equal(a.PerCoreCycles, b.PerCoreCycles) &&
		slices.Equal(a.PerCoreInsts, b.PerCoreInsts) && a.MSHRStallCycles == b.MSHRStallCycles &&
		a.NoIssueCycles == b.NoIssueCycles && a.DRAMRequests == b.DRAMRequests && a.Stalls == b.Stalls
}

// TestDrainForgetsGreedyWarp pins GTO's greedy rule: when the greedy
// warp's block drains, the core forgets the warp. A later admission
// reuses the drained slab, and a pointer into it would select whichever
// warp took the slot.
func TestDrainForgetsGreedyWarp(t *testing.T) {
	w := func() []trace.Rec { return []trace.Rec{alu(1), alu(2)} }
	s, err := newSim(kernel(1, w(), w(), w()), cfg1(1), GTO)
	if err != nil {
		t.Fatal(err)
	}
	co := s.cores[0]
	for now := int64(0); !co.done; now++ {
		s.now = now
		w := s.pick(co, now)
		if w == nil {
			t.Fatalf("cycle %d: no warp can issue", now)
		}
		s.issue(co, w, now)
		if g := co.greedy; g != nil && g.done {
			t.Fatalf("cycle %d: the greedy warp's block drained, but the core still points at it", now)
		}
	}
}

// TestCountsBeyondTheGrid simulates a kernel with far more warps per core,
// and far more MSHRs, than its grid can use. Both counts reach Simulate
// unbounded (a served request sets them), so a core's state must be sized
// by what the kernel gives it: each run must match one whose count the
// grid just fills, without panicking, looping over absent blocks or
// allocating for them.
func TestCountsBeyondTheGrid(t *testing.T) {
	const blocks = 8
	base := config.Baseline()
	base.Cores = 2
	info, err := kernels.Get("sdk_reduction")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := info.Trace(kernels.Scale{Blocks: blocks, Seed: 1}, base.L1LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 46
	cases := []struct {
		name       string
		fits, huge config.Config
	}{
		// Every block of the grid resident at once.
		{"warps", base.WithWarps(blocks * tr.WarpsPerBlock), base.WithWarps(huge / tr.WarpsPerBlock * tr.WarpsPerBlock)},
		// More entries than the kernel ever has lines in flight.
		{"mshrs", base.WithMSHRs(1 << 12), base.WithMSHRs(huge)},
	}
	run := func(cfg config.Config, pol Policy) (*Result, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Simulate(tr, cfg, pol)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return r, after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range cases {
		for _, pol := range []Policy{RR, GTO} {
			want, wantBytes := run(c.fits, pol)
			got, gotBytes := run(c.huge, pol)
			if !resultsEqual(got, want) {
				t.Errorf("%s/%s: %d %s give %+v, the grid's fit %+v", c.name, pol, huge, c.name, got, want)
			}
			if gotBytes > 2*wantBytes {
				t.Errorf("%s/%s: %d %s allocated %d bytes, the grid's fit %d", c.name, pol, huge, c.name, gotBytes, wantBytes)
			}
		}
	}
}
