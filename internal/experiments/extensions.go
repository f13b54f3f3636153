package experiments

import (
	"fmt"

	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/model"
	"gpumech/internal/report"
	"gpumech/internal/stats"
	"gpumech/internal/timing"
)

// ablationKernels exercise the regimes where each extension matters:
// divergent reads (srad1, spmv), divergent writes with line reuse
// (kmeans), pure write saturation (transpose), coalesced saturation
// (vectoradd), and compute-bound (blackscholes).
var ablationKernels = []string{
	"rodinia_srad1",
	"rodinia_kmeans_invert",
	"sdk_transpose_naive",
	"parboil_spmv",
	"sdk_vectoradd",
	"sdk_blackscholes",
}

// ablationVariants are the model configurations compared by the Ablation
// figure.
func ablationVariants() []struct {
	name string
	t    model.Tuning
} {
	return []struct {
		name string
		t    model.Tuning
	}{
		{"full", model.Tuning{}},
		{"no-merge-window", model.Tuning{DisableMergeWindow: true}},
		{"no-issue-floor", model.Tuning{DisableIssueFloor: true}},
		{"no-mshr-cap", model.Tuning{DisableMSHRBudgetCap: true}},
		{"no-bw-roofline", model.Tuning{DisableBWRoofline: true}},
		{"paper-strict", model.PaperStrict()},
	}
}

// Ablation measures what each of the documented extensions beyond the
// paper's printed equations contributes (DESIGN.md section 3): the full
// model against variants with one extension removed, and the equations
// exactly as printed.
//
// Of the switches, only DisableMergeWindow changes structural prep (the
// PC table, model.StructuralReps); the others act after it. So the
// variants that keep the merge window read the kernel's memo entry, and
// the variants without it share one build.
func (e *Evaluator) Ablation() (*report.Figure, error) {
	variants := ablationVariants()
	headers := []string{"kernel", "oracle CPI"}
	for _, v := range variants {
		headers = append(headers, v.name)
	}
	f := &report.Figure{
		ID:      "ablation",
		Title:   "Relative error of the full model vs ablated variants (round-robin, baseline config)",
		Headers: headers,
	}
	cfg := e.Baseline()
	errCols := make([][]float64, len(variants))
	for _, k := range ablationKernels {
		// The standard evaluation provides the oracle and the cache work.
		base, err := e.Eval(k, cfg, config.RR)
		if err != nil {
			return nil, err
		}
		// A cached Eval does not re-trace; make the kernel current before
		// touching its trace.
		kc, err := e.ensureKernel(k)
		if err != nil {
			return nil, err
		}
		ent, err := kc.memo.Entry(cfg, nil, e.opt.Obs)
		if err != nil {
			return nil, err
		}
		in := model.Inputs{
			Kernel: kc.tr, Cfg: cfg, Profile: ent.Profile,
			Policy: config.RR, Level: model.MTMSHRBand, Workers: e.workers,
		}
		build := in
		build.Tuning, build.Obs = model.Tuning{DisableMergeWindow: true}, e.opt.Obs
		nmTable, nmProfiles, nmReps, err := model.StructuralReps(build)
		if err != nil {
			return nil, err
		}
		row := []string{k, report.F(base.Oracle)}
		for vi, v := range variants {
			in.Tuning = v.t
			var est *model.Estimate
			if v.t.DisableMergeWindow {
				est, err = model.RunWithRepresentative(in, nmTable, nmProfiles, nmReps[cluster.Clustering])
			} else {
				est, err = model.RunWithRepresentative(in, ent.Table, ent.WarpProfiles, ent.Rep)
			}
			if err != nil {
				return nil, err
			}
			er := stats.RelErr(est.CPI, base.Oracle)
			row = append(row, report.Pct(er))
			errCols[vi] = append(errCols[vi], er)
		}
		f.Rows = append(f.Rows, row)
	}
	avg := []string{"AVERAGE", ""}
	for vi := range variants {
		avg = append(avg, report.Pct(stats.Mean(errCols[vi])))
	}
	f.Rows = append(f.Rows, avg)
	f.Notes = append(f.Notes,
		"each extension is removed in isolation; paper-strict removes all of them (printed equations with only the min/max typo fixes)",
		"the merge window and the caps matter on divergent/saturated kernels; the issue floor on compute-bound ones")
	return f, nil
}

// sfuKernels are the SFU-heavy workloads for the extension study.
var sfuKernels = []string{
	"sdk_blackscholes",
	"parboil_mriq",
	"rodinia_lavamd",
	"parboil_cutcp",
}

// SFUExtension evaluates the special-function-unit contention extension
// the paper leaves to future work: with SFU lanes constrained, both the
// timing simulator and the model gain an SFU term; the figure reports
// model-vs-oracle error with the extension off and on. SFUPerCore acts
// only after structural prep (it is not part of store.Key), so every run
// of a kernel reads its one memo entry.
func (e *Evaluator) SFUExtension() (*report.Figure, error) {
	f := &report.Figure{
		ID:    "sfu",
		Title: "SFU contention extension: model error with unconstrained vs constrained SFU lanes",
		Headers: []string{"kernel", "sfu/core", "model CPI", "oracle CPI", "error",
			"model CPI (no ext)", "error (no ext)"},
	}
	var withExt, withoutExt []float64
	for _, k := range sfuKernels {
		kc, err := e.ensureKernel(k)
		if err != nil {
			return nil, err
		}
		for _, lanes := range []int{8, 4} {
			cfg := e.Baseline().WithSFUs(lanes)
			ent, err := kc.memo.Entry(cfg, nil, e.opt.Obs)
			if err != nil {
				return nil, err
			}
			orc, err := timing.Simulate(kc.tr, cfg, config.RR)
			if err != nil {
				return nil, err
			}
			in := model.Inputs{Kernel: kc.tr, Cfg: cfg, Profile: ent.Profile,
				Policy: config.RR, Level: model.MTMSHRBand, Workers: e.workers}
			est, err := model.RunWithRepresentative(in, ent.Table, ent.WarpProfiles, ent.Rep)
			if err != nil {
				return nil, err
			}
			// "No extension": the model ignores the SFU constraint the
			// oracle enforces.
			inOff := in
			inOff.Cfg = e.Baseline() // SFUPerCore = 0
			estOff, err := model.RunWithRepresentative(inOff, ent.Table, ent.WarpProfiles, ent.Rep)
			if err != nil {
				return nil, err
			}
			erOn := stats.RelErr(est.CPI, orc.CPI)
			erOff := stats.RelErr(estOff.CPI, orc.CPI)
			withExt = append(withExt, erOn)
			withoutExt = append(withoutExt, erOff)
			f.Rows = append(f.Rows, []string{
				k, fmt.Sprint(lanes), report.F(est.CPI), report.F(orc.CPI), report.Pct(erOn),
				report.F(estOff.CPI), report.Pct(erOff),
			})
		}
	}
	f.Rows = append(f.Rows, []string{"AVERAGE", "", "", "", report.Pct(stats.Mean(withExt)), "", report.Pct(stats.Mean(withoutExt))})
	f.Notes = append(f.Notes,
		"SFU contention is the paper's declared future work (Section IV-B1); with lanes constrained in the oracle, the extension term closes the gap",
		"the default configuration (SFUPerCore=0) matches the paper's balanced-design assumption and leaves all headline figures untouched")
	return f, nil
}
