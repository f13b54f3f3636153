package gpumech

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/model"
	"gpumech/internal/kernels"
)

// TestIntervalProfilesInvariantAcrossProfileKey proves the invariant the
// design-space memo rests on: configurations that agree on
// config.ProfileKey() but differ in warps, MSHRs and DRAM bandwidth
// produce identical per-warp interval profiles, so one trace and one
// cache simulation serve every such sweep point. A geometry change breaks
// the key and must produce a different profile.
func TestIntervalProfilesInvariantAcrossProfileKey(t *testing.T) {
	info, err := kernels.Get("rodinia_srad1")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := info.Trace(kernels.Scale{Blocks: 64, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}

	base := config.Baseline()
	build := func(cfg config.Config) interface{} {
		prof, err := cache.Simulate(tr, cfg.ProfileConfig())
		if err != nil {
			t.Fatal(err)
		}
		tbl := model.BuildPCTable(tr.Prog, cfg, prof)
		profiles, err := model.BuildWarpProfilesWorkers(tr, cfg, tbl, 0)
		if err != nil {
			t.Fatal(err)
		}
		return profiles
	}

	want := build(base)
	for name, cfg := range map[string]config.Config{
		"warps 8":           base.WithWarps(8),
		"warps 48":          base.WithWarps(48),
		"mshrs 256":         base.WithMSHRs(256),
		"bandwidth 64":      base.WithBandwidth(64),
		"all three at once": base.WithWarps(16).WithMSHRs(128).WithBandwidth(96),
	} {
		if cfg.ProfileKey() != base.ProfileKey() {
			t.Fatalf("%s: expected an equal ProfileKey", name)
		}
		if got := build(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: interval profiles differ despite equal ProfileKey", name)
		}
	}

	// A cache-geometry change breaks the key and the profiles.
	small := base
	small.L1SizeBytes = 16 * 1024
	if small.ProfileKey() == base.ProfileKey() {
		t.Fatal("L1 size change did not change the ProfileKey")
	}
	if got := build(small); reflect.DeepEqual(got, want) {
		t.Error("halving the L1 left the interval profiles unchanged; the key split is vacuous")
	}
}

// TestCacheProfileBytesInvariantAcrossSweptAxes is the byte-level form of
// the invariant: under the residency-canonicalized profiling
// configuration, randomly sampled sweep points that share the baseline's
// ProfileKey produce cache profiles whose per-PC statistics serialize to
// the very same bytes (encoding/json sorts map keys, so the comparison is
// exact, not structural). A geometry change must change the bytes.
func TestCacheProfileBytesInvariantAcrossSweptAxes(t *testing.T) {
	info, err := kernels.Get("rodinia_srad1")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := info.Trace(kernels.Scale{Blocks: 64, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}

	base := config.Baseline()
	profileBytes := func(cfg config.Config) []byte {
		prof, err := cache.Simulate(tr, cfg.ProfileConfig())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(prof.PCs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := profileBytes(base)

	rng := rand.New(rand.NewSource(11))
	warps := []int{4, 8, 16, 32, 48, 64}
	for i := 0; i < 8; i++ {
		cfg := base.
			WithWarps(warps[rng.Intn(len(warps))]).
			WithMSHRs(8 << rng.Intn(6)).
			WithBandwidth(float64(32 * (1 + rng.Intn(8)))).
			WithSFUs(1 + rng.Intn(8))
		cfg.IssueWidth = 1 + rng.Intn(4)
		if cfg.ProfileKey() != base.ProfileKey() {
			t.Fatalf("sample %d: swept config changed the ProfileKey", i)
		}
		if got := profileBytes(cfg); !bytes.Equal(got, want) {
			t.Fatalf("sample %d: cache-profile bytes differ despite equal ProfileKey", i)
		}
	}

	small := base
	small.L1SizeBytes = 16 * 1024
	if got := profileBytes(small); bytes.Equal(got, want) {
		t.Error("halving the L1 left the cache-profile bytes unchanged; the key split is vacuous")
	}
}
