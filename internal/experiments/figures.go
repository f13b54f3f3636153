package experiments

import (
	"fmt"
	"slices"
	"sort"

	"gpumech/internal/config"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/kernels"
	"gpumech/internal/report"
	"gpumech/internal/stats"
)

// Sweep points (Section VI-C). Quick mode trims them.
func (e *Evaluator) warpSweep() []int {
	if e.opt.Quick {
		return []int{8, 32}
	}
	return []int{8, 16, 32, 48}
}

func (e *Evaluator) mshrSweep() []int {
	if e.opt.Quick {
		return []int{64, 256}
	}
	return []int{64, 96, 128, 256}
}

func (e *Evaluator) bwSweep() []float64 {
	if e.opt.Quick {
		return []float64{64, 192}
	}
	return []float64{64, 128, 192, 256}
}

// figure16Kernels are the three Rodinia kernels of Section VII-A, chosen
// for their distinct memory divergence degrees.
var figure16Kernels = []string{
	"rodinia_cfd_step_factor",
	"rodinia_cfd_compute_flux",
	"rodinia_kmeans_invert",
}

// Figure4 reproduces the SRAD case study: how modeling each component
// (multithreading, MSHR, DRAM bandwidth) reduces the error for a kernel
// with divergent memory accesses.
func (e *Evaluator) Figure4() (*report.Figure, error) {
	const kernel = "rodinia_srad1"
	ev, err := e.Eval(kernel, e.Baseline(), config.RR)
	if err != nil {
		return nil, err
	}
	errs := ev.Errs()
	f := &report.Figure{
		ID:      "fig04",
		Title:   "Errors of the SRAD kernel as model components are added (round-robin, baseline config)",
		Headers: []string{"model", "predicted CPI", "oracle CPI", "error", "bar"},
	}
	rows := []struct {
		name string
		cpi  float64
		err  float64
	}{
		{"Naive_Interval", ev.Naive, errs[0]},
		{"MT", ev.MT, errs[2]},
		{"MT_MSHR", ev.MTMSHR, errs[3]},
		{"MT_MSHR_BAND", ev.Full, errs[4]},
	}
	maxErr := 0.0
	for _, r := range rows {
		if r.err > maxErr {
			maxErr = r.err
		}
	}
	for _, r := range rows {
		f.Rows = append(f.Rows, []string{
			r.name, report.F(r.cpi), report.F(ev.Oracle), report.Pct(r.err), report.Bar(r.err, maxErr, 30),
		})
	}
	f.Notes = append(f.Notes, fmt.Sprintf("kernel %s: modeling multithreading alone leaves the memory-divergence error; MSHR and DRAM bandwidth modeling close it (paper Figure 4)", kernel))
	return f, nil
}

// Figure7 reproduces the representative-warp selection comparison over the
// control-divergent kernels: MAX, MIN and Clustering selection errors.
func (e *Evaluator) Figure7() (*report.Figure, error) {
	inSet := make(map[string]bool)
	for _, k := range e.Kernels() {
		inSet[k] = true
	}
	type row struct {
		kernel            string
		clust, maxE, minE float64
	}
	var rows []row
	for _, info := range kernels.ControlDivergent() {
		if !inSet[info.Name] {
			continue
		}
		ev, err := e.Eval(info.Name, e.Baseline(), config.RR)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{
			kernel: info.Name,
			clust:  stats.RelErr(ev.Full, ev.Oracle),
			maxE:   stats.RelErr(ev.FullMax, ev.Oracle),
			minE:   stats.RelErr(ev.FullMin, ev.Oracle),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].clust < rows[j].clust })

	f := &report.Figure{
		ID:      "fig07",
		Title:   "Representative-warp selection methods on control-divergent kernels (sorted by clustering error)",
		Headers: []string{"kernel", "Clustering", "MAX", "MIN"},
	}
	var cl, mx, mn []float64
	for _, r := range rows {
		f.Rows = append(f.Rows, []string{r.kernel, report.Pct(r.clust), report.Pct(r.maxE), report.Pct(r.minE)})
		cl = append(cl, r.clust)
		mx = append(mx, r.maxE)
		mn = append(mn, r.minE)
	}
	f.Rows = append(f.Rows, []string{"AVERAGE", report.Pct(stats.Mean(cl)), report.Pct(stats.Mean(mx)), report.Pct(stats.Mean(mn))})
	f.Notes = append(f.Notes, "clustering should match or beat MAX/MIN on average (paper Figure 7)")
	return f, nil
}

// modelComparison builds the Figure 11/12 table for one policy.
func (e *Evaluator) modelComparison(id string, pol config.Policy) (*report.Figure, error) {
	names := ModelNames()
	f := &report.Figure{
		ID:      id,
		Title:   fmt.Sprintf("Model comparison, %s policy: per-kernel relative CPI error", pol),
		Headers: []string{"kernel", names[0], names[1], names[2], names[3], names[4], "oracle CPI"},
	}
	var errCols [5][]float64
	for _, k := range e.Kernels() {
		ev, err := e.Eval(k, e.Baseline(), pol)
		if err != nil {
			return nil, err
		}
		errs := ev.Errs()
		row := []string{k}
		for i, er := range errs {
			row = append(row, report.Pct(er))
			errCols[i] = append(errCols[i], er)
		}
		row = append(row, report.F(ev.Oracle))
		f.Rows = append(f.Rows, row)
	}
	avg := []string{"AVERAGE"}
	under20 := []string{"% KERNELS <20% ERR"}
	for i := range errCols {
		avg = append(avg, report.Pct(stats.Mean(errCols[i])))
		under20 = append(under20, report.Pct(stats.FracBelow(errCols[i], 0.20)))
	}
	f.Rows = append(f.Rows, append(avg, ""), append(under20, ""))

	labels := stats.BucketLabels()
	for i, name := range names {
		b := stats.Buckets(errCols[i])
		f.Notes = append(f.Notes, fmt.Sprintf("%s error distribution: %s=%d %s=%d %s=%d %s=%d %s=%d %s=%d",
			name, labels[0], b[0], labels[1], b[1], labels[2], b[2], labels[3], b[3], labels[4], b[4], labels[5], b[5]))
	}
	return f, nil
}

// Figure11 reproduces the round-robin model comparison.
func (e *Evaluator) Figure11() (*report.Figure, error) {
	return e.modelComparison("fig11", config.RR)
}

// Figure12 reproduces the greedy-then-oldest model comparison.
func (e *Evaluator) Figure12() (*report.Figure, error) {
	return e.modelComparison("fig12", config.GTO)
}

// sweep builds a Figure 13/14/15 style table: mean error over all kernels
// per model at each configuration point. RR policy, as in the paper.
func (e *Evaluator) sweep(id, title, pointName string, points []config.Config, pointLabel func(config.Config) string) (*report.Figure, error) {
	names := ModelNames()
	f := &report.Figure{
		ID:      id,
		Title:   title,
		Headers: []string{pointName, names[0], names[1], names[2], names[3], names[4]},
	}
	for _, cfg := range points {
		var errCols [5][]float64
		for _, k := range e.Kernels() {
			ev, err := e.Eval(k, cfg, config.RR)
			if err != nil {
				return nil, err
			}
			for i, er := range ev.Errs() {
				errCols[i] = append(errCols[i], er)
			}
		}
		row := []string{pointLabel(cfg)}
		for i := range errCols {
			row = append(row, report.Pct(stats.Mean(errCols[i])))
		}
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}

// Figure13 reproduces the warps-per-core sweep.
func (e *Evaluator) Figure13() (*report.Figure, error) {
	var pts []config.Config
	for _, w := range e.warpSweep() {
		pts = append(pts, e.Baseline().WithWarps(w))
	}
	return e.sweep("fig13", "Mean error vs warps per core (round-robin)", "warps",
		pts, func(c config.Config) string { return fmt.Sprint(c.WarpsPerCore) })
}

// Figure14 reproduces the MSHR-entries sweep.
func (e *Evaluator) Figure14() (*report.Figure, error) {
	var pts []config.Config
	for _, m := range e.mshrSweep() {
		pts = append(pts, e.Baseline().WithMSHRs(m))
	}
	return e.sweep("fig14", "Mean error vs MSHR entries (round-robin)", "mshrs",
		pts, func(c config.Config) string { return fmt.Sprint(c.MSHREntries) })
}

// Figure15 reproduces the DRAM-bandwidth sweep.
func (e *Evaluator) Figure15() (*report.Figure, error) {
	var pts []config.Config
	for _, b := range e.bwSweep() {
		pts = append(pts, e.Baseline().WithBandwidth(b))
	}
	return e.sweep("fig15", "Mean error vs DRAM bandwidth (GB/s, round-robin)", "GB/s",
		pts, func(c config.Config) string { return fmt.Sprint(c.DRAMBandwidthGBps) })
}

// Figure16 reproduces the CPI-stack scaling study: stacks for three
// kernels with distinct divergence degrees at 8..48 warps per core,
// alongside the oracle CPI, all normalized to the oracle CPI at 8 warps.
func (e *Evaluator) Figure16() (*report.Figure, error) {
	cats := cpistack.Categories()
	headers := []string{"kernel", "warps"}
	for _, c := range cats {
		headers = append(headers, c.String())
	}
	headers = append(headers, "model CPI", "oracle CPI", "norm model", "norm oracle")
	f := &report.Figure{
		ID:      "fig16",
		Title:   "CPI stacks vs warps per core (normalized to each kernel's oracle CPI at 8 warps)",
		Headers: headers,
	}
	warps := e.warpSweep()
	for _, k := range figure16Kernels {
		var base float64
		for i, w := range warps {
			ev, err := e.Eval(k, e.Baseline().WithWarps(w), config.RR)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = ev.Oracle
			}
			row := []string{k, fmt.Sprint(w)}
			for _, c := range cats {
				row = append(row, report.F(ev.Stack[c]))
			}
			row = append(row, report.F(ev.Full), report.F(ev.Oracle),
				report.F(ev.Full/base), report.F(ev.Oracle/base))
			f.Rows = append(f.Rows, row)
		}
	}
	f.Notes = append(f.Notes,
		"cfd_step_factor scales (coalesced), cfd_compute_flux saturates as MSHR/QUEUE grow, kmeans_invert_mapping is QUEUE-bound from divergent writes (paper Figure 16)")
	return f, nil
}

// Speedup reproduces the Section VI-D timing study: the model (cache
// simulation + interval analysis) versus the detailed timing simulator.
func (e *Evaluator) Speedup() (*report.Figure, error) {
	// Ensure baseline evaluations exist so timings are populated.
	for _, k := range e.Kernels() {
		if _, err := e.Eval(k, e.Baseline(), config.RR); err != nil {
			return nil, err
		}
	}
	f := &report.Figure{
		ID:      "speedup",
		Title:   "GPUMech vs detailed timing simulation (baseline config, RR)",
		Headers: []string{"kernel", "insts", "one-time (s)", "cache sim (s)", "model (s)", "oracle (s)", "speedup"},
	}
	var speedups []float64
	for _, t := range e.Timings() {
		sp := t.Speedup()
		speedups = append(speedups, sp)
		f.Rows = append(f.Rows, []string{
			t.Kernel, fmt.Sprint(t.TraceInsts), fmt.Sprintf("%.3f", t.OneTimeSecs),
			fmt.Sprintf("%.3f", t.CacheSimSecs), fmt.Sprintf("%.4f", t.ModelSecs),
			fmt.Sprintf("%.3f", t.OracleSecs), fmt.Sprintf("%.1fx", sp),
		})
	}
	f.Rows = append(f.Rows, []string{"GEOMEAN", "", "", "", "", "", fmt.Sprintf("%.1fx", stats.GeoMean(speedups))})
	f.Notes = append(f.Notes,
		"functional tracing is excluded on both sides, as in the paper (GPUOcelot feeds both GPUMech and the detailed simulator)",
		"one-time = all-warp interval profiles + clustering, paid once per input (Section VI-D); speedup = oracle / (cache sim + model)",
		"the paper reports 97x against Macsim, a far heavier cycle simulator than this repository's lean trace-driven oracle; match the order of magnitude, not the constant")
	return f, nil
}

// FigureIDs lists the regenerable figures in paper order, followed by the
// repository's own studies (ablation of the documented extensions, and the
// SFU-contention extension the paper leaves to future work).
func FigureIDs() []string {
	return []string{"fig04", "fig07", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "speedup", "ablation", "sfu", "stacks"}
}

// Run regenerates the requested figures (nil = all), sharing evaluations.
func (e *Evaluator) Run(ids []string) ([]*report.Figure, error) {
	if len(ids) == 0 {
		ids = FigureIDs()
	}
	builders := map[string]func() (*report.Figure, error){
		"fig04":    e.Figure4,
		"fig07":    e.Figure7,
		"fig11":    e.Figure11,
		"fig12":    e.Figure12,
		"fig13":    e.Figure13,
		"fig14":    e.Figure14,
		"fig15":    e.Figure15,
		"fig16":    e.Figure16,
		"speedup":  e.Speedup,
		"ablation": e.Ablation,
		"sfu":      e.SFUExtension,
		"stacks":   e.Stacks,
	}
	for _, id := range ids {
		if _, ok := builders[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, FigureIDs())
		}
	}
	// The studies' kernels stay traced from their first use to the end of
	// the run, so the precomputed pass and the studies share one trace
	// and one prep memo per kernel.
	keep := make(map[string]bool)
	for id, ks := range map[string][]string{"ablation": ablationKernels, "sfu": sfuKernels} {
		if slices.Contains(ids, id) {
			for _, k := range ks {
				keep[k] = true
			}
		}
	}
	e.mu.Lock()
	e.keep, e.kept = keep, make(map[string]*kernelCtx)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.keep, e.kept = nil, nil
		e.mu.Unlock()
	}()
	if err := e.precompute(ids); err != nil {
		return nil, err
	}
	var out []*report.Figure
	for _, id := range ids {
		e.logf("building %s ...", id)
		fig, err := builders[id]()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, fig)
	}
	return out, nil
}

// precompute walks the benchmark set and evaluates every configuration
// the requested figures need, so each kernel is traced exactly once even
// when many figures are regenerated. It only builds the per-kernel work
// plans; executePlans runs them, sequentially or on the worker pool.
func (e *Evaluator) precompute(ids []string) error {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var all []point                                   // applied to every kernel in the set
	all = append(all, point{e.Baseline(), config.RR}) // fig04/07/11/speedup baseline
	if want["fig12"] {
		all = append(all, point{e.Baseline(), config.GTO})
	}
	if want["fig13"] {
		for _, w := range e.warpSweep() {
			all = append(all, point{e.Baseline().WithWarps(w), config.RR})
		}
	}
	if want["fig14"] {
		for _, m := range e.mshrSweep() {
			all = append(all, point{e.Baseline().WithMSHRs(m), config.RR})
		}
	}
	if want["fig15"] {
		for _, b := range e.bwSweep() {
			all = append(all, point{e.Baseline().WithBandwidth(b), config.RR})
		}
	}
	fig16 := make(map[string]bool)
	if want["fig16"] {
		for _, k := range figure16Kernels {
			fig16[k] = true
		}
	}
	var plans []kernelPlan
	for _, k := range e.Kernels() {
		pts := append([]point(nil), all...)
		if fig16[k] {
			for _, w := range e.warpSweep() {
				pts = append(pts, point{e.Baseline().WithWarps(w), config.RR})
			}
			delete(fig16, k)
		}
		plans = append(plans, kernelPlan{kernel: k, points: dedupPoints(pts)})
	}
	// Figure 16 kernels outside the benchmark subset still need their
	// warp sweeps; walk figure16Kernels (not the map) for a stable order.
	for _, k := range figure16Kernels {
		if !fig16[k] {
			continue
		}
		var pts []point
		for _, w := range e.warpSweep() {
			pts = append(pts, point{e.Baseline().WithWarps(w), config.RR})
		}
		plans = append(plans, kernelPlan{kernel: k, points: dedupPoints(pts)})
	}
	return e.executePlans(plans)
}

// dedupPoints drops points whose configuration signature repeats (a fig16
// warp sweep overlaps the fig13 sweep, and sweeping through the baseline
// value repeats the baseline point), keeping first-occurrence order. The
// sequential run dedups the same points through the Eval cache; dropping
// them here also keeps parallel workers from computing a point twice.
func dedupPoints(pts []point) []point {
	seen := make(map[string]bool, len(pts))
	out := pts[:0]
	for _, p := range pts {
		sig := cfgSig(p.cfg, p.pol)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, p)
	}
	return out
}
