package timing

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gpumech/internal/config"
	"gpumech/internal/kernels"
	"gpumech/internal/trace"
)

// poolPoint is one run of a pooled-simulator test.
type poolPoint struct {
	name string
	tr   *trace.Kernel
	cfg  config.Config
	pol  Policy
}

// syntheticKernel builds blocks blocks of warpsPerBlock warps that load,
// compute, store and meet at a barrier, with a load left in flight at
// exit, so a run ends with MSHR entries pending.
func syntheticKernel(blocks, warpsPerBlock int) *trace.Kernel {
	var warps [][]trace.Rec
	for b := 0; b < blocks; b++ {
		for w := 0; w < warpsPerBlock; w++ {
			base := uint64(b*warpsPerBlock+w) * 0x400
			warps = append(warps, []trace.Rec{
				load(1, base, base+0x80, 0x100000+base%0x800),
				fp(2, 1), alu(3, 2),
				barrier(),
				store(0x200000 + base),
				load(4, 0x300000+base, 0x300080+base),
			})
		}
	}
	return kernel(warpsPerBlock, warps...)
}

// poolPoints is a run sequence that changes the kernel (warps per block
// and register count), the warps per core, the MSHRs (32 to 8 and back),
// the SFUs, the L1 geometry, the core count and the policy, and holds
// two failing runs: one that fails in its reset (an L1 geometry no array
// can have) and one that deadlocks mid-run with blocks resident (a block
// with a warp that has no records never drains).
func poolPoints(t *testing.T) []poolPoint {
	t.Helper()
	base := config.Baseline()
	base.Cores = 2
	smallL1 := base
	smallL1.L1SizeBytes = 16 * 1024
	threeCores, fourCores := base.WithWarps(16), base
	threeCores.Cores, fourCores.Cores = 3, 4
	badL1 := base
	badL1.L1SizeBytes = 1000
	var points []poolPoint
	add := func(name string, tr *trace.Kernel, cfgs ...config.Config) {
		for ci, cfg := range cfgs {
			for _, pol := range []Policy{RR, GTO} {
				points = append(points, poolPoint{fmt.Sprintf("%s/cfg%d/%s", name, ci, pol), tr, cfg, pol})
			}
		}
	}
	for _, name := range []string{"sdk_reduction", "micro_pointer_chase", "rodinia_pathfinder"} {
		info, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := info.Trace(kernels.Scale{Blocks: 24, Seed: 1}, base.L1LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		add(name, tr, base, base.WithWarps(48), base.WithMSHRs(8), base.WithSFUs(4))
	}
	add("synthetic2", syntheticKernel(12, 2), base.WithWarps(4), base.WithMSHRs(8), smallL1, threeCores)
	add("synthetic8", syntheticKernel(6, 8), fourCores, base.WithWarps(16), smallL1.WithSFUs(4))
	stuck := syntheticKernel(4, 2)
	stuck.Warps[5].ColWarp = trace.ColWarp{}
	add("deadlock", stuck, base.WithWarps(4))
	add("bad-l1", syntheticKernel(2, 2), badL1)
	add("after-failures", syntheticKernel(12, 2), base.WithWarps(4))
	return points
}

// sameRun compares two runs of one point: the same error text, or
// results equal in every field.
func sameRun(got *Result, gotErr error, want *Result, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, want %q", gotErr, wantErr)
		}
	case !resultsEqual(got, want):
		return fmt.Sprintf("%+v, want %+v", got, want)
	}
	return ""
}

// TestPooledSimulatorMatchesFresh runs the sequence of poolPoints twice,
// forward and reversed, each time on one simulator reset for every run,
// and requires every run to match a run on a freshly built simulator in
// every result field, or in its error. State an earlier run leaves in a
// tag array, an MSHR table, a release heap, a column, a block slab, a
// scoreboard or a cursor moves a cycle here, as does a slab reused for
// another warp count or a core left over from a larger machine.
func TestPooledSimulatorMatchesFresh(t *testing.T) {
	points := poolPoints(t)
	want := make([]*Result, len(points))
	wantErr := make([]error, len(points))
	failures := 0
	for i, p := range points {
		want[i], wantErr[i] = new(sim).simulate(p.tr, p.cfg, p.pol)
		if wantErr[i] != nil {
			failures++
		}
	}
	if failures != 4 {
		t.Fatalf("%d of %d fresh runs failed, want the 4 failing points", failures, len(points))
	}
	forward := make([]int, len(points))
	for i := range forward {
		forward[i] = i
	}
	reversed := slices.Clone(forward)
	slices.Reverse(reversed)
	for _, order := range []struct {
		name string
		idx  []int
	}{{"forward", forward}, {"reversed", reversed}} {
		var s sim
		for _, i := range order.idx {
			got, err := s.simulate(points[i].tr, points[i].cfg, points[i].pol)
			if d := sameRun(got, err, want[i], wantErr[i]); d != "" {
				t.Errorf("%s order, %s on a reused simulator: %s", order.name, points[i].name, d)
			}
		}
	}
}

// TestConcurrentSimulateMatchesSequential calls Simulate from several
// goroutines at once, each over the points in its own rotation, and
// requires the sequential results. Under the race detector it also
// checks that pooled simulators are never shared between runs.
func TestConcurrentSimulateMatchesSequential(t *testing.T) {
	var points []poolPoint
	for _, p := range poolPoints(t) {
		if p.cfg.WarpsPerCore <= 16 { // the cheaper half keeps -race quick
			points = append(points, p)
		}
	}
	want := make([]*Result, len(points))
	wantErr := make([]error, len(points))
	for i, p := range points {
		want[i], wantErr[i] = Simulate(p.tr, p.cfg, p.pol)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range points {
				i := (j + g*len(points)/goroutines) % len(points)
				got, err := Simulate(points[i].tr, points[i].cfg, points[i].pol)
				if d := sameRun(got, err, want[i], wantErr[i]); d != "" {
					errs[g] = append(errs[g], points[i].name+": "+d)
				}
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		for _, msg := range e {
			t.Errorf("goroutine %d, %s", g, msg)
		}
	}
}

// TestSimulateKeepsNoTraceAlive shows that a finished Simulate keeps no
// reference into the kernel's trace. sync.Pool keeps its items through
// one collection, so after a single runtime.GC the simulator is still
// pooled, and any warp trace it pointed at would still be reachable; the
// warps' finalizers must run anyway.
func TestSimulateKeepsNoTraceAlive(t *testing.T) {
	freed := make(chan struct{}, 16)
	warps := 0
	func() {
		k := syntheticKernel(4, 2)
		for _, w := range k.Warps {
			runtime.SetFinalizer(w, func(*trace.WarpTrace) { freed <- struct{}{} })
		}
		warps = len(k.Warps)
		if _, err := Simulate(k, cfg1(4), GTO); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	timeout := time.After(10 * time.Second)
	for i := 0; i < warps; i++ {
		select {
		case <-freed:
		case <-timeout:
			t.Fatalf("%d of %d warp traces are still reachable after Simulate returned", warps-i, warps)
		}
	}
}

// simulateAllocsPin bounds the average allocations of a warm Simulate:
// the Result and its two per-core slices, plus room for one refill of
// the pool after collections drop its simulator (a fresh simulator
// makes about 830 allocations at this point, 17 per run over 50 runs).
const simulateAllocsPin = 3 + 17

// TestSimulateAllocs pins the allocations of a warm run. A warm run
// takes the pooled simulator and allocates only its result. The race
// detector makes sync.Pool drop items at random, so it skips there.
func TestSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	info, err := kernels.Get("sdk_reduction")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	tr, err := info.Trace(kernels.Scale{Blocks: 64, Seed: 1}, cfg.L1LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := Simulate(tr, cfg, GTO); err != nil {
			t.Fatal(err)
		}
	})
	if avg > simulateAllocsPin {
		t.Errorf("a warm Simulate allocates %.0f objects on average, pinned at %d", avg, simulateAllocsPin)
	}
	t.Logf("%.0f allocations per warm run", avg)
}
