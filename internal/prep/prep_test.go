package prep

import (
	"sync"
	"testing"

	"gpumech/internal/config"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/store"
)

// TestMemoSharesPrepAndProfiles checks the memo's two levels on one
// trace: concurrent first requests for a key share one build, a point
// that differs only in warps, MSHRs and bandwidth is answered from
// memory, a compute-latency variant builds its own entry on the same
// cache profile, and an invalid configuration is refused even though it
// shares a resolved key.
func TestMemoSharesPrepAndProfiles(t *testing.T) {
	info, err := kernels.Get("sdk_reduction")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := info.Trace(kernels.Scale{Blocks: 8, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, nil)
	m := ForTrace(tr, 1, 2)
	base := config.Baseline()

	entries := make([]*store.Entry, 8)
	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	for i := range entries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], errs[i] = m.Entry(base, nil, o)
		}(i)
	}
	wg.Wait()
	for i, e := range entries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if e != entries[0] {
			t.Fatalf("request %d got its own entry; want one shared build", i)
		}
	}
	swept, err := m.Entry(base.WithWarps(16).WithMSHRs(64).WithBandwidth(96), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if swept != entries[0] {
		t.Error("a warps/MSHRs/bandwidth point did not share the baseline's entry")
	}
	fp := base
	fp.FPLatency = 8
	fpEnt, err := m.Entry(fp, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if fpEnt == entries[0] || fpEnt.Profile != entries[0].Profile {
		t.Error("an FP-latency variant must build its own entry on the shared cache profile")
	}
	if _, err := m.Entry(base.WithWarps(0), nil, o); err == nil {
		t.Error("an invalid configuration sharing a resolved key was accepted")
	}

	if n, want := reg.Counter("interval.warps_profiled").Value(), int64(2*len(tr.Warps)); n != want {
		t.Errorf("interval.warps_profiled = %d, want %d (two prep keys)", n, want)
	}
	if n := reg.Counter("cache.profile.memo_misses").Value(); n != 1 {
		t.Errorf("cache.profile.memo_misses = %d, want 1", n)
	}
}
