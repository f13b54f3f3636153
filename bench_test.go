// Benchmarks regenerating every figure and table of the paper's
// evaluation (DESIGN.md section 4 maps each to its experiment). Each
// BenchmarkFigureNN runs the corresponding experiment and reports the
// headline numbers as custom metrics (mean relative error per model, in
// percent), so `go test -bench=.` both regenerates and summarizes the
// evaluation.
//
// By default the benchmarks run in quick mode (a dozen kernels, trimmed
// sweeps) so the suite completes in minutes on one core. Set
// GPUMECH_BENCH_FULL=1 to use all 40 kernels and full sweeps — that is
// the configuration EXPERIMENTS.md records.
package gpumech

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/model"
	"gpumech/internal/emu"
	"gpumech/internal/experiments"
	"gpumech/internal/kernels"
	"gpumech/internal/timing"
	"gpumech/internal/trace"
)

func benchOptions() experiments.Options {
	full := os.Getenv("GPUMECH_BENCH_FULL") == "1"
	return experiments.Options{Quick: !full}
}

// parsePct extracts a numeric percentage cell like "13.2%".
func parsePct(cell string) float64 {
	if len(cell) == 0 || cell[len(cell)-1] != '%' {
		return 0
	}
	v, err := strconv.ParseFloat(cell[:len(cell)-1], 64)
	if err != nil {
		return 0
	}
	return v
}

// benchFigure runs one figure experiment per iteration (cached after the
// first) and returns the final figure for metric extraction.
func benchFigure(b *testing.B, id string) *experiments.Evaluator {
	b.Helper()
	e := experiments.NewEvaluator(benchOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run([]string{id}); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkFigure4_SRADComponentErrors regenerates Figure 4: the SRAD
// error as model components are added.
func BenchmarkFigure4_SRADComponentErrors(b *testing.B) {
	e := benchFigure(b, "fig04")
	fig, err := e.Figure4()
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range fig.Rows {
		b.ReportMetric(parsePct(row[3]), row[0]+"-%err")
	}
}

// BenchmarkFigure7_RepresentativeWarpSelection regenerates Figure 7.
func BenchmarkFigure7_RepresentativeWarpSelection(b *testing.B) {
	e := benchFigure(b, "fig07")
	fig, err := e.Figure7()
	if err != nil {
		b.Fatal(err)
	}
	last := fig.Rows[len(fig.Rows)-1] // AVERAGE row
	b.ReportMetric(parsePct(last[1]), "clustering-%err")
	b.ReportMetric(parsePct(last[2]), "max-%err")
	b.ReportMetric(parsePct(last[3]), "min-%err")
}

func benchModelComparison(b *testing.B, id string) {
	e := benchFigure(b, id)
	figs, err := e.Run([]string{id})
	if err != nil {
		b.Fatal(err)
	}
	fig := figs[0]
	avg := fig.Rows[len(fig.Rows)-2] // AVERAGE row
	names := experiments.ModelNames()
	for i, n := range names {
		b.ReportMetric(parsePct(avg[i+1]), n+"-%err")
	}
}

// BenchmarkFigure11_ModelComparisonRR regenerates Figure 11 (the paper's
// headline: GPUMech averages 13.2% error under round-robin).
func BenchmarkFigure11_ModelComparisonRR(b *testing.B) { benchModelComparison(b, "fig11") }

// BenchmarkFigure12_ModelComparisonGTO regenerates Figure 12 (14.0% under
// greedy-then-oldest in the paper).
func BenchmarkFigure12_ModelComparisonGTO(b *testing.B) { benchModelComparison(b, "fig12") }

func benchSweep(b *testing.B, id string) {
	e := benchFigure(b, id)
	figs, err := e.Run([]string{id})
	if err != nil {
		b.Fatal(err)
	}
	fig := figs[0]
	// Report the full model's error at the first and last sweep points.
	first, last := fig.Rows[0], fig.Rows[len(fig.Rows)-1]
	b.ReportMetric(parsePct(first[5]), "full-%err@"+first[0])
	b.ReportMetric(parsePct(last[5]), "full-%err@"+last[0])
	b.ReportMetric(parsePct(last[1]), "naive-%err@"+last[0])
}

// BenchmarkFigure13_WarpSweep regenerates Figure 13 (error vs warps/core).
func BenchmarkFigure13_WarpSweep(b *testing.B) { benchSweep(b, "fig13") }

// BenchmarkFigure14_MSHRSweep regenerates Figure 14 (error vs MSHRs).
func BenchmarkFigure14_MSHRSweep(b *testing.B) { benchSweep(b, "fig14") }

// BenchmarkFigure15_BandwidthSweep regenerates Figure 15 (error vs GB/s).
func BenchmarkFigure15_BandwidthSweep(b *testing.B) { benchSweep(b, "fig15") }

// BenchmarkFigure16_CPIStackScaling regenerates Figure 16 (CPI stacks vs
// occupancy for the three Section VII-A kernels).
func BenchmarkFigure16_CPIStackScaling(b *testing.B) {
	e := benchFigure(b, "fig16")
	fig, err := e.Figure16()
	if err != nil {
		b.Fatal(err)
	}
	// Metric: the predicted-vs-oracle normalized CPI of the last row
	// (kmeans at the highest occupancy) — the scaling-trend check.
	last := fig.Rows[len(fig.Rows)-1]
	m, _ := strconv.ParseFloat(last[len(last)-2], 64)
	o, _ := strconv.ParseFloat(last[len(last)-1], 64)
	b.ReportMetric(m, "norm-model")
	b.ReportMetric(o, "norm-oracle")
}

// BenchmarkSpeedup_ModelVsTiming regenerates the Section VI-D study.
func BenchmarkSpeedup_ModelVsTiming(b *testing.B) {
	e := benchFigure(b, "speedup")
	fig, err := e.Speedup()
	if err != nil {
		b.Fatal(err)
	}
	last := fig.Rows[len(fig.Rows)-1][6] // GEOMEAN like "12.3x"
	v, _ := strconv.ParseFloat(last[:len(last)-1], 64)
	b.ReportMetric(v, "speedup-x")
}

// ---- component micro-benchmarks -------------------------------------------

// benchKernelTrace traces a kernel once for the component benches.
func benchKernelTrace(b *testing.B, name string, blocks int) *trace.Kernel {
	b.Helper()
	info, err := kernels.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := info.Trace(kernels.Scale{Blocks: blocks, Seed: 1}, 128)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkEmulator measures the functional emulator's single-core cost
// in ns per emulated warp-instruction (ns/inst) on rodinia_srad1 and the
// three kernels of the first_contact benchmark workload, at 128 blocks
// on one worker. Each iteration emulates from a fresh copy of the launch
// memory; building and copying it is left out of the time, while the
// pre-flight check and trace validation are in it.
func BenchmarkEmulator(b *testing.B) {
	for _, name := range []string{"rodinia_srad1", "sdk_transpose_naive", "rodinia_hotspot", "sdk_scan"} {
		b.Run(name, func(b *testing.B) {
			info, err := kernels.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			l, err := info.EmuLaunch(kernels.Scale{Blocks: 128, Seed: 1}, 128)
			if err != nil {
				b.Fatal(err)
			}
			l.Workers = 1
			mem := l.Mem
			var insts int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l.Mem = mem.Clone()
				b.StartTimer()
				tr, err := emu.Run(l)
				if err != nil {
					b.Fatal(err)
				}
				insts += tr.TotalInsts()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}

// BenchmarkCacheSimulator measures the functional cache simulation.
func BenchmarkCacheSimulator(b *testing.B) {
	tr := benchKernelTrace(b, "rodinia_cfd_compute_flux", 128)
	cfg := config.Baseline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntervalAlgorithm measures the interval algorithm over every
// warp of a kernel (the model's per-input profiling cost).
func BenchmarkIntervalAlgorithm(b *testing.B) {
	tr := benchKernelTrace(b, "rodinia_cfd_compute_flux", 128)
	cfg := config.Baseline()
	prof, err := cache.Simulate(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tbl := model.BuildPCTable(tr.Prog, cfg, prof)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.BuildWarpProfilesWorkers(tr, cfg, tbl, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelFull measures one complete GPUMech evaluation (interval
// summaries of every warp + clustering + the representatives' profiles +
// multi-warp + contention models).
func BenchmarkModelFull(b *testing.B) {
	tr := benchKernelTrace(b, "rodinia_cfd_compute_flux", 128)
	cfg := config.Baseline()
	prof, err := cache.Simulate(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Run(model.Inputs{Kernel: tr, Cfg: cfg, Profile: prof, Policy: config.RR}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimingSimulator measures the detailed oracle's throughput in
// simulated warp-instructions per second (Minst/s) on a compute-bound,
// a barrier-phased and a memory-divergent kernel, under both scheduling
// policies, and on sdk_reduction at its default grid with 48 warps per
// core under GTO: the heaviest GTO point of the benchmark's
// validate_oracle workload, where each full scan checks the most warps.
func BenchmarkTimingSimulator(b *testing.B) {
	cfg := config.Baseline()
	simulate := func(b *testing.B, tr *trace.Kernel, cfg config.Config, pol timing.Policy) {
		var insts int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := timing.Simulate(tr, cfg, pol)
			if err != nil {
				b.Fatal(err)
			}
			insts += r.Insts
		}
		b.ReportMetric(float64(insts)/1e6/b.Elapsed().Seconds(), "Minst/s")
	}
	for _, name := range []string{"parboil_stencil", "rodinia_hotspot", "micro_pointer_chase"} {
		b.Run(name, func(b *testing.B) {
			tr := benchKernelTrace(b, name, 128)
			for _, pol := range []timing.Policy{timing.RR, timing.GTO} {
				b.Run(pol.String(), func(b *testing.B) { simulate(b, tr, cfg, pol) })
			}
		})
	}
	b.Run("sdk_reduction/warps48/GTO", func(b *testing.B) {
		info, err := kernels.Get("sdk_reduction")
		if err != nil {
			b.Fatal(err)
		}
		tr := benchKernelTrace(b, "sdk_reduction", kernels.DefaultBlocks(info.WarpsPerBlock))
		simulate(b, tr, cfg.WithWarps(48), timing.GTO)
	})
}

// ---- parallel-vs-sequential benchmarks -------------------------------------

// benchBuildWarpProfiles measures the interval-profiling stage at a fixed
// worker count. The sequential/parallel pair quantifies the pool's
// speedup on the model's dominant per-input cost.
func benchBuildWarpProfiles(b *testing.B, workers int) {
	tr := benchKernelTrace(b, "rodinia_cfd_compute_flux", 128)
	cfg := config.Baseline()
	prof, err := cache.Simulate(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tbl := model.BuildPCTable(tr.Prog, cfg, prof)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.BuildWarpProfilesWorkers(tr, cfg, tbl, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildWarpProfilesSequential is the one-worker baseline for
// BenchmarkBuildWarpProfilesParallel.
func BenchmarkBuildWarpProfilesSequential(b *testing.B) { benchBuildWarpProfiles(b, 1) }

// BenchmarkBuildWarpProfilesParallel profiles every warp using one worker
// per available CPU.
func BenchmarkBuildWarpProfilesParallel(b *testing.B) {
	benchBuildWarpProfiles(b, runtime.GOMAXPROCS(0))
}

// benchEvaluator builds Figure 11 from scratch each iteration (a fresh
// Evaluator, so nothing is served from the eval cache) at a fixed worker
// count.
func benchEvaluator(b *testing.B, workers int) {
	opt := benchOptions()
	opt.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := experiments.NewEvaluator(opt)
		if _, err := e.Run([]string{"fig11"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorSequential is the one-worker baseline for
// BenchmarkEvaluatorParallel.
func BenchmarkEvaluatorSequential(b *testing.B) { benchEvaluator(b, 1) }

// BenchmarkEvaluatorParallel runs the full evaluation pipeline — tracing,
// cache simulation, model chain, and oracle — on the worker pool.
func BenchmarkEvaluatorParallel(b *testing.B) { benchEvaluator(b, runtime.GOMAXPROCS(0)) }
