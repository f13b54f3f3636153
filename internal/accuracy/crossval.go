// Cross-validation of the static performance advisor (internal/check/perf)
// against the interval model's CPI stacks. The advisor predicts a
// dominant-bottleneck label from the program text and launch geometry
// alone; the model attributes cycles from a full trace, cache
// simulation, and interval analysis. Comparing the two over the paper
// set plus generated kernels turns the advisor's attribution quality
// into a pinned, regression-tracked number (testdata/perflint/
// envelope.json, DESIGN.md §16) instead of a claim.
package accuracy

import (
	"fmt"

	"gpumech/internal/check"
	"gpumech/internal/check/perf"
	"gpumech/internal/config"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/gen"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/parallel"
	"gpumech/internal/prep"
)

// CrossOptions configures a cross-validation run.
type CrossOptions struct {
	// Kernels selects the registry kernels. Nil means the full paper
	// set; a non-nil empty slice means generated kernels only.
	Kernels []string
	// Blocks overrides the registry-kernel grid (0 = the
	// paper-methodology kernels.DefaultBlocks scale).
	Blocks int
	// Seed drives kernel inputs and the generator stream (0 = 1).
	Seed int64
	// GenCount appends that many generated kernels (stream indices
	// 0..GenCount-1).
	GenCount int
	// GenBlocks overrides the generated kernels' grid (0 = the
	// generator's own 3x-occupancy default).
	GenBlocks int
	// Policy is the model's scheduling policy. The zero value is RR.
	Policy config.Policy
	// Cfg is the hardware configuration both sides are evaluated
	// against. Nil means config.Baseline().
	Cfg *config.Config
	// Workers bounds the worker pool (0 = GPUMECH_WORKERS or
	// GOMAXPROCS). The report is byte-identical at any value.
	Workers int
	// Obs receives spans and metrics (nil = disabled).
	Obs *obs.Observer
}

// CrossResult is one kernel's advisor-vs-model comparison.
type CrossResult struct {
	Kernel    string `json:"kernel"`
	Generated bool   `json:"generated,omitempty"`

	// Advisor is the advisor's raw four-way label (base / memory /
	// divergence / sync); ModelStall is the model's dominant CPI-stack
	// category (dominantStall). ModelGroup collapses the latter onto
	// the advisor vocabulary, and Agree compares the two sides in that
	// collapsed space.
	Advisor    string `json:"advisor"`
	ModelStall string `json:"modelStall"`
	ModelGroup string `json:"modelGroup"`
	Agree      bool   `json:"agree"`
}

// CrossCell is one confusion-matrix cell: how many kernels the advisor
// labeled Advisor while the model's dominant stall was Model. Agree
// marks the cells that count toward the agreement rate.
type CrossCell struct {
	Advisor string `json:"advisor"`
	Model   string `json:"model"`
	Count   int    `json:"count"`
	Agree   bool   `json:"agree"`
}

// CrossReport is the full cross-validation document. Confusion holds
// the non-empty cells in fixed (advisor label, model category) order;
// Worst is the most populated disagreeing cell, nil when the two sides
// agree everywhere.
type CrossReport struct {
	SchemaVersion int    `json:"schemaVersion"`
	Seed          int64  `json:"seed"`
	Blocks        int    `json:"blocks"`
	GenCount      int    `json:"genCount"`
	Policy        string `json:"policy"`

	N         int         `json:"n"`
	Agreed    int         `json:"agreed"`
	Agreement float64     `json:"agreement"`
	Confusion []CrossCell `json:"confusion"`
	Worst     *CrossCell  `json:"worstDisagreement,omitempty"`

	Results []CrossResult `json:"results"`
}

// advisorGroup collapses the advisor's four-way label onto the space
// the model can adjudicate. The interval model has no divergence or
// sync category — serialization and barrier waits surface in its stack
// as base/dependency cycles — so for the agreement metric those labels
// count as base. The raw label still reaches the confusion matrix.
func advisorGroup(label string) string {
	if label == perf.BottleneckMemory {
		return perf.BottleneckMemory
	}
	return perf.BottleneckBase
}

// modelGroup maps the model's dominant CPI-stack category onto the
// advisor vocabulary: the memory-hierarchy categories to memory, the
// pipeline categories (BASE, DEP, SFU) to base.
func modelGroup(stall string) string {
	switch stall {
	case cpistack.L1.String(), cpistack.L2.String(), cpistack.DRAM.String(),
		cpistack.MSHR.String(), cpistack.Queue.String():
		return perf.BottleneckMemory
	}
	return perf.BottleneckBase
}

// advisorInput reconstructs the program and launch geometry the advisor
// sees for one sweep kernel — the same build the trace came from.
func (s *kernelSpec) advisorInput(opt *Options) (check.LaunchInfo, *perf.Advice, error) {
	var launch check.LaunchInfo
	var ad *perf.Advice
	if s.gen != nil {
		launch = check.LaunchInfo{
			Blocks:          s.gen.Blocks,
			ThreadsPerBlock: s.gen.ThreadsPerBlock,
			SharedBytes:     s.gen.SharedBytes,
		}
		var err error
		ad, err = perf.Advise(s.gen.Prog, perf.Options{Launch: launch})
		return launch, ad, err
	}
	info, err := kernels.Get(s.name)
	if err != nil {
		return launch, nil, err
	}
	l, err := info.Build(kernels.Scale{Blocks: opt.blocksFor(info), Seed: opt.Seed})
	if err != nil {
		return launch, nil, err
	}
	launch = check.LaunchInfo{
		Blocks:          l.Blocks,
		ThreadsPerBlock: l.ThreadsPerBlock,
		SharedBytes:     l.SharedBytes,
	}
	ad, err = perf.Advise(l.Prog, perf.Options{Launch: launch})
	return launch, ad, err
}

// CrossValidate runs the advisor and the model over the selected
// kernels and reports the label agreement. It is model-only: no timing
// simulation runs, so a point costs one trace, one cache simulation,
// one structural prep (model.StructuralReps), and one model evaluation.
func CrossValidate(copt CrossOptions) (*CrossReport, error) {
	if copt.Seed == 0 {
		copt.Seed = 1
	}
	cfg := config.Baseline()
	if copt.Cfg != nil {
		cfg = *copt.Cfg
	}
	// The shared spec/trace machinery reads the registry selection and
	// scale from an Options value.
	opt := Options{
		Kernels: copt.Kernels,
		Blocks:  copt.Blocks,
		Seed:    copt.Seed,
		Obs:     copt.Obs,
	}

	specs := make([]*kernelSpec, 0, len(opt.kernelNames())+copt.GenCount)
	for _, name := range opt.kernelNames() {
		if _, err := kernels.Get(name); err != nil {
			return nil, err
		}
		specs = append(specs, &kernelSpec{name: name})
	}
	for i := 0; i < copt.GenCount; i++ {
		gk, err := gen.Generate(copt.Seed, int64(i))
		if err != nil {
			return nil, err
		}
		if copt.GenBlocks > 0 {
			gk.Blocks = copt.GenBlocks
		}
		specs = append(specs, &kernelSpec{name: gk.Name, gen: gk})
	}

	rep := &CrossReport{
		SchemaVersion: SchemaVersion,
		Seed:          copt.Seed,
		Blocks:        copt.Blocks,
		GenCount:      copt.GenCount,
		Policy:        copt.Policy.String(),
		N:             len(specs),
	}
	results := make([]*CrossResult, len(specs))
	workers := parallel.Workers(copt.Workers)

	err := parallel.ForEach(workers, len(specs), func(ki int) error {
		spec := specs[ki]
		res, err := crossPoint(spec, &opt, &cfg, copt.Policy, copt.Obs)
		if err != nil {
			return fmt.Errorf("crossval: %s: %w", spec.name, err)
		}
		results[ki] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	counts := map[CrossCell]int{}
	for _, r := range results {
		rep.Results = append(rep.Results, *r)
		if r.Agree {
			rep.Agreed++
		}
		counts[CrossCell{Advisor: r.Advisor, Model: r.ModelStall, Agree: r.Agree}]++
	}
	if rep.N > 0 {
		rep.Agreement = float64(rep.Agreed) / float64(rep.N)
	}
	// Emit the non-empty cells in fixed label × category order so the
	// document never depends on map iteration.
	for _, al := range perf.Labels() {
		for _, mc := range cpistack.Categories() {
			for _, agree := range []bool{true, false} {
				cell := CrossCell{Advisor: al, Model: mc.String(), Agree: agree}
				n := counts[cell]
				if n == 0 {
					continue
				}
				cell.Count = n
				rep.Confusion = append(rep.Confusion, cell)
				if !agree && (rep.Worst == nil || n > rep.Worst.Count) {
					worst := cell
					rep.Worst = &worst
				}
			}
		}
	}
	return rep, nil
}

// crossPoint evaluates one kernel on both sides: the advisor on the
// static program, the model on the traced kernel, both at cfg.
func crossPoint(spec *kernelSpec, opt *Options, cfg *config.Config,
	pol config.Policy, ob *obs.Observer) (*CrossResult, error) {
	_, ad, err := spec.advisorInput(opt)
	if err != nil {
		return nil, err
	}

	tr, err := spec.trace(opt, cfg.L1LineBytes)
	if err != nil {
		return nil, fmt.Errorf("tracing: %w", err)
	}
	est, err := estimate(prep.ForTrace(tr, opt.Seed, 1), *cfg, pol, ob)
	if err != nil {
		return nil, err
	}

	stall := dominantStall(est.Stack)
	res := &CrossResult{
		Kernel:     spec.name,
		Generated:  spec.gen != nil,
		Advisor:    ad.Dominant,
		ModelStall: stall,
		ModelGroup: modelGroup(stall),
	}
	res.Agree = advisorGroup(res.Advisor) == res.ModelGroup
	if ob != nil && ob.Metrics != nil {
		ob.Counter("crossval.points").Inc()
	}
	return res, nil
}
