package gpumech

import (
	"strings"
	"testing"

	"gpumech/internal/obs"
)

func TestKernelRegistryComplete(t *testing.T) {
	suites := map[string]int{}
	for _, info := range KernelInfos() {
		suites[info.Suite]++
		if info.Description == "" {
			t.Errorf("%s has no description", info.Name)
		}
		if info.WarpsPerBlock <= 0 {
			t.Errorf("%s has no warps per block", info.Name)
		}
	}
	if paper := suites["rodinia"] + suites["parboil"] + suites["sdk"]; paper != 40 {
		t.Fatalf("paper evaluation set = %d kernels, want 40 (Section VI-A)", paper)
	}
	if suites["micro"] == 0 {
		t.Error("micro stressor kernels missing")
	}
}

func TestControlDivergentSubsetNonEmpty(t *testing.T) {
	n := 0
	for _, info := range KernelInfos() {
		if info.ControlDiv {
			n++
		}
	}
	if n < 8 {
		t.Errorf("control-divergent kernels = %d, want a healthy Figure 7 population", n)
	}
}

func TestNewSessionUnknownKernel(t *testing.T) {
	if _, err := NewSession("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown kernel: %v", err)
	}
}

func TestSessionBasics(t *testing.T) {
	sess, err := NewSession("sdk_saxpy", WithBlocks(16), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Kernel() != "sdk_saxpy" || sess.Blocks() != 16 {
		t.Errorf("session meta wrong: %s %d", sess.Kernel(), sess.Blocks())
	}
	if sess.Warps() != 16*4 {
		t.Errorf("warps = %d, want 64", sess.Warps())
	}
	if sess.TotalInsts() == 0 {
		t.Error("empty trace")
	}
}

func TestEstimateLevelsMonotone(t *testing.T) {
	sess, err := NewSession("rodinia_srad1", WithBlocks(64))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var prev float64
	for _, lvl := range []Level{MT, MTMSHR, MTMSHRBand} {
		est, err := sess.EstimateWith(cfg, RR, lvl, Clustering)
		if err != nil {
			t.Fatal(err)
		}
		if est.CPI < prev-1e-9 {
			t.Errorf("level %v CPI %g below previous %g", lvl, est.CPI, prev)
		}
		prev = est.CPI
	}
}

func TestEstimateDeterministic(t *testing.T) {
	sess, err := NewSession("rodinia_bfs", WithBlocks(32))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sess.Estimate(DefaultConfig(), GTO)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Estimate(DefaultConfig(), GTO)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPI != b.CPI || a.RepWarp != b.RepWarp {
		t.Errorf("nondeterministic estimate: %+v vs %+v", a, b)
	}
}

func TestBaselinesAvailable(t *testing.T) {
	sess, err := NewSession("sdk_vectoradd", WithBlocks(32))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, bm := range []BaselineModel{NaiveInterval, MarkovChain} {
		cpi, err := sess.EstimateBaseline(cfg, bm)
		if err != nil {
			t.Fatalf("%v: %v", bm, err)
		}
		if cpi < 1 {
			t.Errorf("%v CPI = %g below the issue bound", bm, cpi)
		}
	}
	if NaiveInterval.String() != "Naive_Interval" || MarkovChain.String() != "Markov_Chain" {
		t.Error("baseline names wrong")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(1.2, 1.0); got < 0.199 || got > 0.201 {
		t.Errorf("RelativeError = %g", got)
	}
	if RelativeError(0.8, 1.0) != RelativeError(1.2, 1.0) {
		t.Error("not symmetric in magnitude")
	}
	if RelativeError(5, 0) != 0 {
		t.Error("zero oracle must be 0")
	}
}

func TestStackSumsToEstimate(t *testing.T) {
	sess, err := NewSession("rodinia_kmeans_point", WithBlocks(32))
	if err != nil {
		t.Fatal(err)
	}
	est, err := sess.Estimate(DefaultConfig(), RR)
	if err != nil {
		t.Fatal(err)
	}
	if d := est.Stack.CPI() - est.CPI; d > 1e-6 || d < -1e-6 {
		t.Errorf("stack %g != CPI %g", est.Stack.CPI(), est.CPI)
	}
}

func TestOracleAgreesAcrossCalls(t *testing.T) {
	sess, err := NewSession("parboil_stencil", WithBlocks(32))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sess.Oracle(DefaultConfig(), RR)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Oracle(DefaultConfig(), RR)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPI != b.CPI || a.Cycles != b.Cycles {
		t.Error("oracle nondeterministic")
	}
}

func TestDefaultBlocks(t *testing.T) {
	if got := DefaultBlocks(4); got != 3*16*32/4 {
		t.Errorf("DefaultBlocks(4) = %d", got)
	}
	if got := DefaultBlocks(8); got != 3*16*32/8 {
		t.Errorf("DefaultBlocks(8) = %d", got)
	}
}

// TestMicroKernelModelBounds checks the model on the stressor kernels:
// pointer chasing is latency-serialized (high CPI for model and oracle),
// and the pure copy hits the bandwidth roofline in both.
func TestMicroKernelModelBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	for _, tc := range []struct {
		kernel string
		minCPI float64
	}{
		{"micro_pointer_chase", 2},
		{"micro_copy", 1.2},
	} {
		sess, err := NewSession(tc.kernel, WithBlocks(96))
		if err != nil {
			t.Fatal(err)
		}
		est, err := sess.Estimate(DefaultConfig(), RR)
		if err != nil {
			t.Fatal(err)
		}
		orc, err := sess.Oracle(DefaultConfig(), RR)
		if err != nil {
			t.Fatal(err)
		}
		if orc.CPI < tc.minCPI {
			t.Errorf("%s: oracle CPI %.2f below expected floor %.1f", tc.kernel, orc.CPI, tc.minCPI)
		}
		er := RelativeError(est.CPI, orc.CPI)
		t.Logf("%s: model %.2f oracle %.2f err %.1f%%", tc.kernel, est.CPI, orc.CPI, er*100)
		if er > 1.0 {
			t.Errorf("%s: model error %.0f%% beyond sanity", tc.kernel, er*100)
		}
	}
}

// TestModelTracksOracleAcrossAllKernels is the repository's accuracy
// regression guard: on every registered kernel (at a reduced grid), full
// GPUMech must stay within a sane per-kernel band and a tight aggregate
// band of the detailed simulation. The oracle is single-threaded, so
// under the race detector the sweep keeps every eighth kernel, as
// TestOracleResultsPinned does; both bands are still checked there.
func TestModelTracksOracleAcrossAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite validation is not short")
	}
	names := Kernels()
	if raceEnabled {
		var trimmed []string
		for i, name := range names {
			if i%8 == 0 {
				trimmed = append(trimmed, name)
			}
		}
		names = trimmed
	}
	var errs []float64
	for _, name := range names {
		sess, err := NewSession(name, WithBlocks(96))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		est, err := sess.Estimate(DefaultConfig(), RR)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		orc, err := sess.Oracle(DefaultConfig(), RR)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		er := RelativeError(est.CPI, orc.CPI)
		errs = append(errs, er)
		if er > 1.0 {
			t.Errorf("%s: error %.0f%% (model %.2f oracle %.2f) beyond the per-kernel band",
				name, er*100, est.CPI, orc.CPI)
		}
	}
	mean := 0.0
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	t.Logf("mean error across %d kernels: %.1f%%", len(errs), mean*100)
	if mean > 0.25 {
		t.Errorf("mean error %.1f%% exceeds the 25%% aggregate band (paper headline: 13.2%%)", mean*100)
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("rr"); err != nil || p != RR {
		t.Fatalf("ParsePolicy(rr) = %v, %v", p, err)
	}
	if p, err := ParsePolicy("gto"); err != nil || p != GTO {
		t.Fatalf("ParsePolicy(gto) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Fatal("ParsePolicy must reject unknown policies")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"mt": MT, "mshr": MTMSHR, "full": MTMSHRBand,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("turbo"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
}

// TestObservingSharesMemo proves an Observing view reuses the base
// session's prep memo (no re-simulation) while reporting to its own
// observer, and that the view's estimates are identical.
func TestObservingSharesMemo(t *testing.T) {
	base, err := NewSession("sdk_vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	want, err := base.Estimate(cfg, RR)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewObserver(obs.NewRegistry(), nil)
	view := base.Observing(reg)
	got, err := view.Estimate(cfg, RR)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("Observing view estimate differs:\n got %+v\nwant %+v", got, want)
	}
	s := reg.Metrics.Snapshot()
	if s.Counters["cache.profile.memo_hits"] != 1 || s.Counters["cache.profile.memo_misses"] != 0 {
		t.Fatalf("view must hit the shared memo, got hits=%d misses=%d",
			s.Counters["cache.profile.memo_hits"], s.Counters["cache.profile.memo_misses"])
	}
}
