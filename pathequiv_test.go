package gpumech

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"gpumech/internal/baseline"
	"gpumech/internal/cache"
	"gpumech/internal/core/model"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/trace"
)

// pathKernels is the fixed three-kernel sample of the path matrix: one
// compute-bound, one memory- and control-divergent, one barrier-phased.
var pathKernels = []string{"parboil_mriq", "rodinia_srad1", "sdk_reduction"}

const pathBlocks = 16

// pathConfigs holds two configurations that share one prep key and one
// that shares only the cache profile (a different FP latency).
func pathConfigs() map[string]Config {
	base := DefaultConfig()
	fp := base
	fp.FPLatency = 8
	return map[string]Config{
		"baseline": base,
		"swept":    base.WithWarps(16).WithMSHRs(64).WithBandwidth(96),
		"fp8":      fp,
	}
}

// pathAnswers is everything one entry path answers for one kernel: an
// estimate fingerprint per (config, policy, method) and the bits of each
// baseline prediction per (config, model).
type pathAnswers map[string]string

// sequentialTrace traces info on the sequential emulator (one worker):
// the reference trace the parallel emulator and every entry path are
// compared against.
func sequentialTrace(t *testing.T, info *kernels.Info, blocks int) *trace.Kernel {
	t.Helper()
	l, err := info.EmuLaunch(kernels.Scale{Blocks: blocks, Seed: 1}, DefaultConfig().L1LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	l.Workers = 1
	tr, err := emu.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// referenceAnswers computes the answers the all-warp pipeline gives on a
// trace from the sequential emulator, with no memo, store, trace file or
// parallel emulation involved: a full interval profile of every warp
// (model.BuildWarpProfilesWorkers), selection on those profiles, and the
// model on the selected warp. It selects on full profiles where
// model.StructuralReps selects on summaries, so it is an independent
// contract every Session path must meet.
func referenceAnswers(t *testing.T, kernel string) pathAnswers {
	t.Helper()
	info, err := kernels.Get(kernel)
	if err != nil {
		t.Fatal(err)
	}
	tr := sequentialTrace(t, info, pathBlocks)
	out := pathAnswers{}
	for cname, cfg := range pathConfigs() {
		prof, err := cache.Simulate(tr, cfg.ProfileConfig())
		if err != nil {
			t.Fatal(err)
		}
		tbl := model.BuildPCTable(tr.Prog, cfg, prof)
		profiles, err := model.BuildWarpProfilesWorkers(tr, cfg, tbl, 1)
		if err != nil {
			t.Fatal(err)
		}
		reps := map[Method]int{}
		for _, m := range []Method{Clustering, MaxWarp, MinWarp} {
			if reps[m], err = model.SelectRepresentative(profiles, m, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, pol := range []Policy{RR, GTO} {
			for _, m := range []Method{Clustering, MaxWarp, MinWarp} {
				est, err := model.RunWithRepresentative(model.Inputs{Cfg: cfg, Profile: prof,
					Policy: pol, Method: m, Level: MTMSHRBand}, tbl, profiles, reps[m])
				if err != nil {
					t.Fatal(err)
				}
				out[cname+"/"+pol.String()+"/"+m.String()] = estimateFingerprint(t, &Estimate{
					CPI:               est.CPI,
					IPC:               est.IPCPerCore(),
					MultithreadingCPI: est.CPIMultithreading,
					ContentionCPI:     est.CPIContention,
					MSHRDelayCycles:   est.Contention.MSHRDelay,
					DRAMDelayCycles:   est.Contention.BWDelay,
					RepWarp:           est.RepWarp,
					Stack:             est.Stack,
					Intervals:         len(est.RepProfile.Intervals),
					WarpInsts:         est.RepProfile.Insts,
				})
			}
		}
		for _, b := range []BaselineModel{NaiveInterval, MarkovChain} {
			f := baseline.NaiveInterval
			if b == MarkovChain {
				f = baseline.MarkovChain
			}
			cpi, err := f(profiles[reps[Clustering]], cfg.WarpsPerCore)
			if err != nil {
				t.Fatal(err)
			}
			out[cname+"/"+b.String()] = floatBits(cpi)
		}
	}
	return out
}

// sessionAnswers asks s every question referenceAnswers answers.
func sessionAnswers(t *testing.T, s *Session) pathAnswers {
	t.Helper()
	out := pathAnswers{}
	for cname, cfg := range pathConfigs() {
		for _, pol := range []Policy{RR, GTO} {
			for _, m := range []Method{Clustering, MaxWarp, MinWarp} {
				est, err := s.EstimateWith(cfg, pol, MTMSHRBand, m)
				if err != nil {
					t.Fatal(err)
				}
				out[cname+"/"+pol.String()+"/"+m.String()] = estimateFingerprint(t, est)
			}
		}
		for _, b := range []BaselineModel{NaiveInterval, MarkovChain} {
			cpi, err := s.EstimateBaseline(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			out[cname+"/"+b.String()] = floatBits(cpi)
		}
	}
	return out
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// TestEntryPathsAgree is the path-equivalence matrix: every Session entry
// path — storeless, store cold (build and put), store warm (a fresh
// session reading the same directory), an Observing view, sessions that
// emulate and profile on one worker and on four, a session over the
// storeless session's trace saved as a v2 file, and a session that loads
// its trace from a trace cache instead of emulating — gives the all-warp
// pipeline's answers bit for bit, for every kernel of the sample, both
// policies, all three selection methods and both baseline models.
func TestEntryPathsAgree(t *testing.T) {
	for _, kernel := range pathKernels {
		t.Run(kernel, func(t *testing.T) {
			want := referenceAnswers(t, kernel)
			dir := t.TempDir()
			newSession := func(opts ...Option) *Session {
				s, err := NewSession(kernel, append([]Option{WithBlocks(pathBlocks)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			plain := newSession()
			warmReg, cacheReg := obs.NewRegistry(), obs.NewRegistry()
			cacheDir := t.TempDir()
			paths := []struct {
				name string
				sess func() *Session
			}{
				{"storeless", func() *Session { return plain }},
				{"observing", func() *Session {
					return plain.Observing(NewObserver(obs.NewRegistry(), obs.NewTracer()))
				}},
				{"store cold", func() *Session { return newSession(WithProfileStore(dir)) }},
				{"store warm", func() *Session {
					return newSession(WithProfileStore(dir), WithObserver(NewObserver(warmReg, nil)))
				}},
				{"1 worker", func() *Session { return newSession(WithWorkers(1)) }},
				{"4 workers", func() *Session { return newSession(WithWorkers(4)) }},
				{"columnar file", func() *Session {
					path := filepath.Join(t.TempDir(), "col.trace")
					if err := plain.lazy.tr.Save(path); err != nil {
						t.Fatal(err)
					}
					s, err := NewSessionFromTraceFile(path)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}},
				{"trace cache hit", func() *Session {
					newSession(WithTraceCache(cacheDir)) // the miss that writes the entry
					return newSession(WithTraceCache(cacheDir), WithObserver(NewObserver(cacheReg, nil)))
				}},
			}
			for _, p := range paths {
				got := sessionAnswers(t, p.sess())
				for k, w := range want {
					if got[k] != w {
						t.Errorf("%s %s: differs from the all-warp pipeline\n want %q\n  got %q", p.name, k, w, got[k])
					}
				}
			}
			if n := warmReg.Counter("trace.kernels").Value(); n != 0 {
				t.Errorf("store-warm session traced %d kernels, want 0", n)
			}
			if n := warmReg.Counter("store.hits").Value(); n != 2 {
				t.Errorf("store-warm session: store.hits = %d, want 2 (one per prep key)", n)
			}
			if n := cacheReg.Counter("trace.kernels").Value(); n != 0 {
				t.Errorf("trace-cache-hit session emulated %d kernels, want 0", n)
			}
		})
	}
}

// TestSweepProfilesWarpsOnce pins the profile-once, explore-many cost: a
// 50-point sweep over warps, MSHRs and bandwidth on one session runs the
// interval algorithm over each warp once, k-means once, and a full
// profile of at most the three representatives, then answers from the
// prep memo.
func TestSweepProfilesWarpsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	sess, err := NewSession("rodinia_srad1", WithBlocks(pathBlocks), WithObserver(NewObserver(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, w := range []int{8, 16, 24, 32, 48} {
		for _, m := range []int{16, 32, 64, 128, 256} {
			for _, bw := range []float64{96, 192} {
				cfg := DefaultConfig().WithWarps(w).WithMSHRs(m).WithBandwidth(bw)
				if _, err := sess.Estimate(cfg, GTO); err != nil {
					t.Fatal(err)
				}
				points++
			}
		}
	}
	if points != 50 {
		t.Fatalf("swept %d points, want 50", points)
	}
	if n := reg.Counter("interval.warps_profiled").Value(); n != int64(sess.Warps()) {
		t.Errorf("interval.warps_profiled = %d, want %d (each warp once)", n, sess.Warps())
	}
	if n := reg.Counter("interval.reps_profiled").Value(); n < 1 || n > 3 {
		t.Errorf("interval.reps_profiled = %d, want 1 to 3", n)
	}
	if n := reg.Counter("kmeans.runs").Value(); n != 1 {
		t.Errorf("kmeans.runs = %d, want 1", n)
	}
	if miss, hit := reg.Counter("cache.profile.memo_misses").Value(), reg.Counter("cache.profile.memo_hits").Value(); miss != 1 || hit != 49 {
		t.Errorf("cache.profile memo misses/hits = %d/%d, want 1/49", miss, hit)
	}
}

// TestEstimateSpanRecordsPrepTier checks the "prep" attribute of the
// estimate span names the tier that answered: a build, then the memo,
// then — in a fresh session over the same store — the disk.
func TestEstimateSpanRecordsPrepTier(t *testing.T) {
	dir := t.TempDir()
	tiers := func(opts ...Option) []string {
		tr := obs.NewTracer()
		s, err := NewSession("sdk_vectoradd", append([]Option{WithBlocks(8),
			WithObserver(NewObserver(nil, tr))}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Estimate(DefaultConfig(), RR); err != nil {
				t.Fatal(err)
			}
		}
		var out []string
		for _, r := range tr.Records() {
			if r.Name != "estimate" {
				continue
			}
			for _, a := range r.Attrs {
				if a.Key == "prep" {
					out = append(out, a.Value)
				}
			}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		opts []Option
		want []string
	}{
		{"storeless", nil, []string{"build", "memory"}},
		{"store cold", []Option{WithProfileStore(dir)}, []string{"build", "memory"}},
		{"store warm", []Option{WithProfileStore(dir)}, []string{"disk", "memory"}},
	} {
		got := tiers(tc.opts...)
		if len(got) != len(tc.want) || got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("%s: prep tiers %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTraceSpanRecordsEmulation checks the trace span's provenance: how
// many block ranges the emulator ran and why, if at all, it fell back to
// the sequential emulator. No bundled kernel falls back, so
// emu.fallbacks stays zero.
func TestTraceSpanRecordsEmulation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg, tr := obs.NewRegistry(), obs.NewTracer()
		if _, err := NewSession("sdk_vectoradd", WithBlocks(8), WithWorkers(workers),
			WithObserver(NewObserver(reg, tr))); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, r := range tr.Records() {
			if r.Name != "trace" {
				continue
			}
			for _, a := range r.Attrs {
				got[a.Key] = a.Value
			}
		}
		if got["workers"] != fmt.Sprint(workers) || got["fallback"] != "none" {
			t.Errorf("%d workers: trace span workers=%q fallback=%q, want %d and none",
				workers, got["workers"], got["fallback"], workers)
		}
		if n := reg.Counter("emu.fallbacks").Value(); n != 0 {
			t.Errorf("%d workers: emu.fallbacks = %d, want 0", workers, n)
		}
	}
}
