package accuracy

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"gpumech/internal/config"
	"gpumech/internal/emu"
	"gpumech/internal/gen"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
)

// smallOpts is a fast sweep for structural tests: two registry kernels
// and a few generated ones, all at deliberately tiny grids (structural
// invariants do not depend on occupancy), over the full default axis.
func smallOpts() Options {
	return Options{
		Kernels:   []string{"sdk_vectoradd", "rodinia_srad1"},
		Blocks:    16,
		GenCount:  4,
		GenBlocks: 32,
		Seed:      1,
	}
}

func marshal(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportDeterministicAcrossWorkers is the harness's core guarantee:
// the full JSON document is byte-identical at 1 and 8 workers.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	opt := smallOpts()
	opt.Workers = 1
	seq, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	par, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	a, b := marshal(t, seq), marshal(t, par)
	if !bytes.Equal(a, b) {
		t.Fatalf("report differs between 1 and 8 workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
}

// TestReportShape checks the document's structural invariants on a small
// run: plan accounting, per-policy partitioning, CDF mass, worst-case
// ordering, and finite CPIs everywhere.
func TestReportShape(t *testing.T) {
	rep, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantPlanned := (2 + 4) * len(DefaultAxes()) * 2
	if rep.PlannedPoints != wantPlanned || rep.EvaluatedPoints != wantPlanned || rep.TruncatedPoints != 0 {
		t.Fatalf("plan accounting: planned=%d evaluated=%d truncated=%d, want %d/%d/0",
			rep.PlannedPoints, rep.EvaluatedPoints, rep.TruncatedPoints, wantPlanned, wantPlanned)
	}
	if len(rep.Results) != wantPlanned {
		t.Fatalf("got %d results, want %d", len(rep.Results), wantPlanned)
	}
	for _, r := range rep.Results {
		if math.IsNaN(r.ModelCPI) || math.IsInf(r.ModelCPI, 0) || r.ModelCPI <= 0 {
			t.Fatalf("%s @ %s/%s: bad model CPI %v", r.Kernel, r.Axis, r.Policy, r.ModelCPI)
		}
		if math.IsNaN(r.OracleCPI) || r.OracleCPI <= 0 {
			t.Fatalf("%s @ %s/%s: bad oracle CPI %v", r.Kernel, r.Axis, r.Policy, r.OracleCPI)
		}
		if r.RelErr < 0 {
			t.Fatalf("negative relative error %v", r.RelErr)
		}
		if r.DominantStall == "" || len(r.Stack) == 0 || len(r.OracleStalls) == 0 {
			t.Fatalf("%s @ %s/%s: missing attribution fields", r.Kernel, r.Axis, r.Policy)
		}
	}
	if len(rep.Summaries) != 2 {
		t.Fatalf("got %d summaries, want 2", len(rep.Summaries))
	}
	for _, s := range rep.Summaries {
		if s.N != wantPlanned/2 {
			t.Fatalf("policy %s: N=%d, want %d", s.Policy, s.N, wantPlanned/2)
		}
		mass := 0
		for _, b := range s.CDF {
			mass += b.Count
		}
		if mass != s.N {
			t.Fatalf("policy %s: CDF mass %d != N %d", s.Policy, mass, s.N)
		}
		for i := 1; i < len(s.Worst); i++ {
			if s.Worst[i].RelErr > s.Worst[i-1].RelErr {
				t.Fatalf("policy %s: worst list not sorted", s.Policy)
			}
		}
		if s.MaxRelErr > 0 && (len(s.Worst) == 0 || s.Worst[0].RelErr != s.MaxRelErr) {
			t.Fatalf("policy %s: worst[0] does not match MaxRelErr", s.Policy)
		}
	}
}

// TestBudgetTruncatesPlanDeterministically pins -budget semantics: the
// plan is cut at exactly Budget points, in plan order, before any work
// runs — so a budgeted run is a prefix of the unbudgeted one.
func TestBudgetTruncatesPlanDeterministically(t *testing.T) {
	full, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpts()
	opt.Budget = 7
	cut, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if cut.EvaluatedPoints != 7 || len(cut.Results) != 7 {
		t.Fatalf("budget=7 evaluated %d points (%d results)", cut.EvaluatedPoints, len(cut.Results))
	}
	if cut.TruncatedPoints != full.PlannedPoints-7 {
		t.Fatalf("truncated=%d, want %d", cut.TruncatedPoints, full.PlannedPoints-7)
	}
	for i, r := range cut.Results {
		if r.Kernel != full.Results[i].Kernel || r.Axis != full.Results[i].Axis || r.Policy != full.Results[i].Policy {
			t.Fatalf("budgeted result %d is not a prefix of the full plan", i)
		}
	}
}

// TestGeneratedOnlySweep covers the generated-kernel path end to end: a
// non-nil empty kernel list disables the paper set, and every generated
// kernel must run through both the model and the timing oracle.
func TestGeneratedOnlySweep(t *testing.T) {
	rep, err := Run(Options{
		Kernels:   []string{},
		GenCount:  8,
		GenBlocks: 32,
		Seed:      2,
		Axes:      BaselineAxis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 8*2 {
		t.Fatalf("got %d results, want 16", len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Generated {
			t.Fatalf("unexpected registry kernel %s in generated-only sweep", r.Kernel)
		}
	}
}

// TestAcceptance200GeneratedKernels is the PR's scale gate: 200 kernels
// of seed 1 must run through check.Verify (inside Generate), the model,
// and the timing simulator without a panic or error, under both
// policies. Skipped in -short runs.
func TestAcceptance200GeneratedKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("200-kernel differential sweep is not a -short test")
	}
	if raceEnabled {
		t.Skip("200-kernel sweep is minutes under the race detector; covered by the non-race job")
	}
	rep, err := Run(Options{
		Kernels:  []string{},
		GenCount: 200,
		Seed:     1,
		Axes:     BaselineAxis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 200*2 {
		t.Fatalf("got %d results, want 400", len(rep.Results))
	}
	for _, r := range rep.Results {
		if math.IsNaN(r.ModelCPI) || math.IsNaN(r.OracleCPI) {
			t.Fatalf("%s @ %s: NaN CPI", r.Kernel, r.Policy)
		}
	}
}

// TestUnknownKernelFails ensures a bad registry name fails the run
// instead of being silently dropped from the plan.
func TestUnknownKernelFails(t *testing.T) {
	if _, err := Run(Options{Kernels: []string{"no_such_kernel"}}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestPolicyFilter restricts the sweep to one policy.
func TestPolicyFilter(t *testing.T) {
	rep, err := Run(Options{
		Kernels:  []string{"sdk_vectoradd"},
		Policies: []config.Policy{config.GTO},
		Axes:     BaselineAxis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Policy != "gto" {
		t.Fatalf("policy filter failed: %+v", rep.Results)
	}
	if len(rep.Summaries) != 1 {
		t.Fatalf("got %d summaries, want 1", len(rep.Summaries))
	}
}

// TestKernelsEmulateSequentially: the sweep runs one kernel per worker,
// so at any worker count each kernel's emulation runs its blocks
// sequentially, for registry and generated kernels alike.
func TestKernelsEmulateSequentially(t *testing.T) {
	gk, err := gen.Generate(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gk.Blocks = 8
	for _, workers := range []int{1, 4} {
		opt := Options{Blocks: 8, Seed: 1, Workers: workers}
		for _, spec := range []*kernelSpec{{name: "sdk_vectoradd"}, {name: gk.Name, gen: gk}} {
			l, err := spec.launch(&opt, 128)
			if err != nil {
				t.Fatal(err)
			}
			var st emu.Stats
			l.Stats = &st
			if _, err := emu.Run(l); err != nil {
				t.Fatal(err)
			}
			if st.Workers != 1 {
				t.Errorf("%s at Workers %d: emulated over %d block ranges, want 1", spec.name, workers, st.Workers)
			}
		}
	}
}

// TestPrepBuiltOncePerKernel pins the harness's prep cost: every point of
// the default axis under both policies shares one prep key, so each
// kernel's warps go through the interval algorithm once and its cache is
// simulated once.
func TestPrepBuiltOncePerKernel(t *testing.T) {
	names := []string{"sdk_vectoradd", "rodinia_srad1"}
	const blocks = 16
	warps := 0
	for _, name := range names {
		info, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		warps += blocks * info.WarpsPerBlock
	}
	reg := obs.NewRegistry()
	rep, err := Run(Options{Kernels: names, Blocks: blocks, Seed: 1, Obs: obs.NewObserver(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(names) * len(DefaultAxes()) * 2; len(rep.Results) != want {
		t.Fatalf("got %d results, want %d", len(rep.Results), want)
	}
	if n := reg.Counter("interval.warps_profiled").Value(); n != int64(warps) {
		t.Errorf("interval.warps_profiled = %d, want %d (each warp once)", n, warps)
	}
	if n := reg.Counter("cache.profile.memo_misses").Value(); n != int64(len(names)) {
		t.Errorf("cache.profile.memo_misses = %d, want %d (one per kernel)", n, len(names))
	}
}
