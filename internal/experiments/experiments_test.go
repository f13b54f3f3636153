package experiments

import (
	"slices"
	"strings"
	"testing"

	"gpumech/internal/config"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
)

// tinyEvaluator uses two cheap kernels at a small grid so the whole
// experiment machinery runs in seconds.
func tinyEvaluator() *Evaluator {
	return NewEvaluator(Options{
		Kernels: []string{"sdk_vectoradd", "rodinia_cfd_compute_flux"},
		Blocks:  64,
		Quick:   true,
	})
}

func TestEvalCaching(t *testing.T) {
	e := tinyEvaluator()
	cfg := e.Baseline()
	ev1, err := e.Eval("sdk_vectoradd", cfg, config.RR)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := e.Eval("sdk_vectoradd", cfg, config.RR)
	if err != nil {
		t.Fatal(err)
	}
	if ev1 != ev2 {
		t.Error("identical evaluation not cached")
	}
}

func TestEvalFieldsPopulated(t *testing.T) {
	e := tinyEvaluator()
	ev, err := e.Eval("rodinia_cfd_compute_flux", e.Baseline(), config.RR)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"oracle": ev.Oracle, "naive": ev.Naive, "markov": ev.Markov,
		"mt": ev.MT, "mshr": ev.MTMSHR, "full": ev.Full,
		"fullMax": ev.FullMax, "fullMin": ev.FullMin,
	} {
		if v <= 0 {
			t.Errorf("%s CPI = %g, want positive", name, v)
		}
	}
	if ev.Stack.CPI() <= 0 {
		t.Error("stack empty")
	}
	errs := ev.Errs()
	for i, er := range errs {
		if er < 0 {
			t.Errorf("error %d negative: %g", i, er)
		}
	}
}

func TestModelLevelOrderingOnRealKernel(t *testing.T) {
	e := tinyEvaluator()
	ev, err := e.Eval("rodinia_cfd_compute_flux", e.Baseline(), config.RR)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MTMSHR < ev.MT-1e-9 || ev.Full < ev.MTMSHR-1e-9 {
		t.Errorf("levels not monotone: %g %g %g", ev.MT, ev.MTMSHR, ev.Full)
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	e := tinyEvaluator()
	if _, err := e.Run([]string{"fig99"}); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Errorf("unknown figure not rejected: %v", err)
	}
}

func TestUnknownKernelRejected(t *testing.T) {
	e := NewEvaluator(Options{Kernels: []string{"no_such_kernel"}, Blocks: 16})
	if _, err := e.Run([]string{"fig11"}); err == nil {
		t.Error("unknown kernel not rejected")
	}
}

func TestFigure11Shape(t *testing.T) {
	e := tinyEvaluator()
	figs, err := e.Run([]string{"fig11"})
	if err != nil {
		t.Fatal(err)
	}
	fig := figs[0]
	// 2 kernels + AVERAGE + %<20 rows.
	if len(fig.Rows) != 4 {
		t.Fatalf("fig11 rows = %d, want 4", len(fig.Rows))
	}
	if len(fig.Headers) != 7 {
		t.Errorf("fig11 headers = %v", fig.Headers)
	}
	if fig.Rows[2][0] != "AVERAGE" {
		t.Errorf("summary row = %v", fig.Rows[2])
	}
	if len(fig.Notes) != 5 {
		t.Errorf("fig11 notes = %d, want one per model", len(fig.Notes))
	}
}

func TestSpeedupTimingsPopulated(t *testing.T) {
	e := tinyEvaluator()
	fig, err := e.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 { // 2 kernels + geomean
		t.Fatalf("speedup rows = %d", len(fig.Rows))
	}
	for _, tm := range e.Timings() {
		if tm.OracleSecs <= 0 || tm.CacheSimSecs <= 0 || tm.ModelSecs <= 0 || tm.OneTimeSecs <= 0 {
			t.Errorf("%s timings incomplete: %+v", tm.Kernel, tm)
		}
		if tm.Speedup() <= 0 {
			t.Errorf("%s speedup = %g", tm.Kernel, tm.Speedup())
		}
	}
}

func TestFigureIDsMatchBuilders(t *testing.T) {
	e := tinyEvaluator()
	ids := FigureIDs()
	if len(ids) != 12 {
		t.Errorf("FigureIDs = %v", ids)
	}
	// fig04 resolves even though srad1 is outside the kernel subset.
	figs, err := e.Run([]string{"fig04"})
	if err != nil {
		t.Fatal(err)
	}
	if figs[0].ID != "fig04" || len(figs[0].Rows) != 4 {
		t.Errorf("fig04 shape wrong: %+v", figs[0].Rows)
	}
}

// TestPrepBuiltOncePerKernel pins the profile-once, explore-many cost of
// a figure run: every point of Figs. 11-15 on a kernel shares one prep
// key, so each kernel's warps go through the interval algorithm once and
// its cache is simulated once, however many points and workers there
// are. (The Section VI-D timing build runs without the observer.) The
// ablation builds each of its kernels' prep twice: the memo entry, which
// the variants that keep the merge window read, and one build without
// the merge window, shared by the two variants that drop it. The SFU
// study reads each kernel's memo entry at every lane count, since
// SFUPerCore acts only after prep. Every kernel is emulated once per run
// (trace.kernels), also when the evaluator's kernel set and both studies
// share kernels: the studies then read the trace and the memo entry the
// precomputed evaluations built.
func TestPrepBuiltOncePerKernel(t *testing.T) {
	const blocks = 64
	warpsOf := func(names ...string) int {
		warps := 0
		for _, name := range names {
			info, err := kernels.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			warps += blocks * info.WarpsPerBlock
		}
		return warps
	}
	names := []string{"sdk_vectoradd", "rodinia_cfd_compute_flux"}
	// The studies trace their own kernels; cfd is in neither list, so the
	// baseline pass over the evaluator's kernel set adds one build of it.
	cfd := []string{"rodinia_cfd_compute_flux"}
	// A kernel set that shares kernels with both studies, which share
	// sdk_blackscholes with each other.
	shared := []string{"rodinia_cfd_compute_flux", "sdk_blackscholes", "rodinia_srad1"}
	distinct := slices.Clone(ablationKernels)
	for _, k := range append(slices.Clone(shared), sfuKernels...) {
		if !slices.Contains(distinct, k) {
			distinct = append(distinct, k)
		}
	}
	cases := []struct {
		figs     []string
		kernels  []string
		warps    int // interval.warps_profiled
		profiles int // cache.profile.memo_misses
		traces   int // trace.kernels
	}{
		{[]string{"fig11", "fig12", "fig13", "fig14", "fig15"}, names, warpsOf(names...), len(names), len(names)},
		{[]string{"ablation"}, cfd, warpsOf(cfd...) + 2*warpsOf(ablationKernels...), 1 + len(ablationKernels), 1 + len(ablationKernels)},
		{[]string{"sfu"}, cfd, warpsOf(cfd...) + warpsOf(sfuKernels...), 1 + len(sfuKernels), 1 + len(sfuKernels)},
		{[]string{"ablation", "sfu"}, shared, warpsOf(distinct...) + warpsOf(ablationKernels...), len(distinct), len(distinct)},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			reg := obs.NewRegistry()
			e := NewEvaluator(Options{Kernels: tc.kernels, Blocks: blocks, Quick: true, Workers: workers,
				Obs: obs.NewObserver(reg, nil)})
			if _, err := e.Run(tc.figs); err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("interval.warps_profiled").Value(); n != int64(tc.warps) {
				t.Errorf("%v workers=%d: interval.warps_profiled = %d, want %d", tc.figs, workers, n, tc.warps)
			}
			if n := reg.Counter("cache.profile.memo_misses").Value(); n != int64(tc.profiles) {
				t.Errorf("%v workers=%d: cache.profile.memo_misses = %d, want %d (one per kernel)", tc.figs, workers, n, tc.profiles)
			}
			if n := reg.Counter("trace.kernels").Value(); n != int64(tc.traces) {
				t.Errorf("%v workers=%d: trace.kernels = %d, want %d (one emulation per kernel)", tc.figs, workers, n, tc.traces)
			}
		}
	}
}
