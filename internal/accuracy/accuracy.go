// Package accuracy is the differential-testing harness (ROADMAP item 3):
// it sweeps the analytical model against the cycle-level timing simulator
// — the repository's ground truth — across the paper's 40 benchmark
// kernels, both scheduling policies, a hardware configuration axis
// (warps, MSHRs, DRAM bandwidth), and any number of seeded generated
// kernels (internal/gen), and reports per-point relative error, error
// CDFs per policy, and the worst-case cliffs with per-stall-cause
// attribution from the model's CPI stack.
//
// The report is deterministic: the evaluation plan is fixed before any
// work starts (budget truncation included), results land in
// plan-indexed slots, and every summary is derived from that ordered
// slice — so the JSON document is byte-identical at any worker count.
package accuracy

import (
	"fmt"
	"sort"

	"gpumech/internal/config"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/core/model"
	"gpumech/internal/emu"
	"gpumech/internal/gen"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/parallel"
	"gpumech/internal/prep"
	"gpumech/internal/stats"
	"gpumech/internal/timing"
	"gpumech/internal/trace"
)

// SchemaVersion identifies the report document shape.
const SchemaVersion = 1

// AxisPoint is one hardware configuration of the sweep axis.
type AxisPoint struct {
	Name string
	Cfg  config.Config
}

// DefaultAxes returns the standard sweep axis: the Table I baseline plus
// one step along each of the paper's three sweep dimensions (Figs.
// 13-15). All five points share one cache-profile key, so each kernel is
// traced and cache-simulated exactly once for the whole axis.
func DefaultAxes() []AxisPoint {
	base := config.Baseline()
	return []AxisPoint{
		{Name: "baseline", Cfg: base},
		{Name: "warps=16", Cfg: base.WithWarps(16)},
		{Name: "warps=48", Cfg: base.WithWarps(48)},
		{Name: "mshrs=16", Cfg: base.WithMSHRs(16)},
		{Name: "bw=96", Cfg: base.WithBandwidth(96)},
	}
}

// BaselineAxis returns the single-point axis used by the envelope test.
func BaselineAxis() []AxisPoint {
	return []AxisPoint{{Name: "baseline", Cfg: config.Baseline()}}
}

// Options configures a differential run.
type Options struct {
	// Kernels selects the registry kernels to sweep. Nil means the full
	// 40-kernel paper set; a non-nil empty slice means none (generated
	// kernels only).
	Kernels []string
	// Blocks is the grid size for registry kernels. 0 means the paper's
	// methodology scale — kernels.DefaultBlocks, at least 3x system
	// occupancy — which keeps every core saturated and the model's
	// full-residency assumption valid. Set a small explicit value for
	// smoke runs (the resulting errors then include an occupancy
	// artifact the model does not claim to capture). Generated kernels
	// carry their own grid.
	Blocks int
	// Seed drives the registry kernels' synthetic inputs and the
	// generator stream.
	Seed int64
	// GenCount appends that many generated kernels (seed stream indices
	// 0..GenCount-1) to the sweep.
	GenCount int
	// GenBlocks overrides the generated kernels' grid size (0 = the
	// generator's 3x-occupancy default). Small values make smoke runs
	// cheap; like a small Blocks they introduce an occupancy artifact
	// into the reported errors.
	GenBlocks int
	// Policies restricts the scheduling policies (nil = RR and GTO).
	Policies []config.Policy
	// Axes is the configuration axis (nil = DefaultAxes).
	Axes []AxisPoint
	// Budget caps the number of evaluated points; the plan is truncated
	// in deterministic order before execution, so the budget cannot
	// depend on timing or worker count. 0 means unlimited.
	Budget int
	// Workers bounds the worker pool (0 = GPUMECH_WORKERS or GOMAXPROCS,
	// 1 = sequential). The report is byte-identical at any value.
	Workers int
	// Obs receives spans and metrics (nil = disabled); it never changes
	// the report.
	Obs *obs.Observer
}

func (o *Options) kernelNames() []string {
	if o.Kernels == nil {
		return kernels.PaperNames()
	}
	return o.Kernels
}

func (o *Options) policies() []config.Policy {
	if len(o.Policies) == 0 {
		return config.Policies()
	}
	return o.Policies
}

func (o *Options) axes() []AxisPoint {
	if len(o.Axes) == 0 {
		return DefaultAxes()
	}
	return o.Axes
}

// blocksFor resolves the grid size for one registry kernel: the explicit
// override, or the paper-methodology default for its block shape.
func (o *Options) blocksFor(info *kernels.Info) int {
	if o.Blocks != 0 {
		return o.Blocks
	}
	return kernels.DefaultBlocks(info.WarpsPerBlock)
}

// Result is one evaluated (kernel, axis, policy) point.
type Result struct {
	Kernel    string `json:"kernel"`
	Generated bool   `json:"generated,omitempty"`
	Axis      string `json:"axis"`
	Policy    string `json:"policy"`

	ModelCPI  float64 `json:"modelCPI"`
	OracleCPI float64 `json:"oracleCPI"`
	RelErr    float64 `json:"relErr"`

	// Stack is the model's CPI stack by category; OracleStalls is the
	// timing simulator's per-reason share of core cycles. Together they
	// attribute a miss to the component that diverged.
	Stack        map[string]float64 `json:"stack"`
	OracleStalls map[string]float64 `json:"oracleStalls"`

	// DominantStall is the largest non-base component of the model's
	// CPI stack — the model's own account of where the cycles went.
	DominantStall string `json:"dominantStall"`
}

// BucketCount is one error-CDF bucket (Figure 11/12 bucketing).
type BucketCount struct {
	Label string `json:"label"`
	Count int    `json:"count"`
}

// PolicySummary aggregates every evaluated point of one policy.
type PolicySummary struct {
	Policy string `json:"policy"`
	N      int    `json:"n"`

	MeanRelErr   float64 `json:"meanRelErr"`
	MedianRelErr float64 `json:"medianRelErr"`
	MaxRelErr    float64 `json:"maxRelErr"`
	FracBelow10  float64 `json:"fracBelow10"`
	FracBelow30  float64 `json:"fracBelow30"`

	CDF []BucketCount `json:"cdf"`

	// Worst lists the highest-error points (at most 5), the harness's
	// cliff report: each carries the kernel (a generated kernel's name
	// encodes its seed and index, so the cliff reproduces from the name
	// alone) and the model's dominant stall cause.
	Worst []Result `json:"worst"`
}

// Report is the full differential-run document.
type Report struct {
	SchemaVersion int   `json:"schemaVersion"`
	Seed          int64 `json:"seed"`
	// Blocks echoes the registry-kernel grid override; 0 means the
	// per-kernel paper-methodology default.
	Blocks   int      `json:"blocks"`
	GenCount int      `json:"genCount"`
	Axes     []string `json:"axes"`
	Policies []string `json:"policies"`

	PlannedPoints   int `json:"plannedPoints"`
	EvaluatedPoints int `json:"evaluatedPoints"`
	TruncatedPoints int `json:"truncatedPoints"`

	Summaries []PolicySummary `json:"summaries"`
	Results   []Result        `json:"results"`
}

// kernelSpec is one kernel of the sweep: a registry name or a generated
// instance.
type kernelSpec struct {
	name string
	gen  *gen.Kernel // nil for registry kernels
}

// launch builds the kernel's emulator launch. The sweep already runs one
// kernel per worker, so the emulator runs each kernel's blocks
// sequentially rather than nesting block ranges inside the fan-out.
func (s *kernelSpec) launch(opt *Options, lineBytes int) (emu.Launch, error) {
	var l emu.Launch
	if s.gen != nil {
		l = s.gen.Launch(lineBytes)
	} else {
		info, err := kernels.Get(s.name)
		if err != nil {
			return l, err
		}
		if l, err = info.EmuLaunch(kernels.Scale{Blocks: opt.blocksFor(info), Seed: opt.Seed}, lineBytes); err != nil {
			return l, err
		}
	}
	l.Workers = 1
	return l, nil
}

func (s *kernelSpec) trace(opt *Options, lineBytes int) (*trace.Kernel, error) {
	l, err := s.launch(opt, lineBytes)
	if err != nil {
		return nil, err
	}
	return emu.Run(l)
}

// Run executes the differential sweep and builds the report.
func Run(opt Options) (*Report, error) {
	axes := opt.axes()
	pols := opt.policies()
	if opt.Seed == 0 {
		opt.Seed = 1
	}

	specs := make([]*kernelSpec, 0, len(opt.kernelNames())+opt.GenCount)
	for _, name := range opt.kernelNames() {
		if _, err := kernels.Get(name); err != nil {
			return nil, err
		}
		specs = append(specs, &kernelSpec{name: name})
	}
	for i := 0; i < opt.GenCount; i++ {
		gk, err := gen.Generate(opt.Seed, int64(i))
		if err != nil {
			return nil, err
		}
		if opt.GenBlocks > 0 {
			gk.Blocks = opt.GenBlocks
		}
		specs = append(specs, &kernelSpec{name: gk.Name, gen: gk})
	}

	// The plan: every (kernel, axis, policy) point in deterministic
	// order, truncated to the budget before any evaluation starts.
	pointsPerKernel := len(axes) * len(pols)
	planned := len(specs) * pointsPerKernel
	evaluated := planned
	if opt.Budget > 0 && opt.Budget < planned {
		evaluated = opt.Budget
	}

	rep := &Report{
		SchemaVersion:   SchemaVersion,
		Seed:            opt.Seed,
		Blocks:          opt.Blocks,
		GenCount:        opt.GenCount,
		PlannedPoints:   planned,
		EvaluatedPoints: evaluated,
		TruncatedPoints: planned - evaluated,
	}
	for _, a := range axes {
		rep.Axes = append(rep.Axes, a.Name)
	}
	for _, p := range pols {
		rep.Policies = append(rep.Policies, p.String())
	}

	results := make([]*Result, evaluated)
	workers := parallel.Workers(opt.Workers)
	lineBytes := config.Baseline().L1LineBytes

	err := parallel.ForEach(workers, len(specs), func(ki int) error {
		base := ki * pointsPerKernel
		if base >= evaluated {
			return nil // entire kernel truncated by the budget
		}
		spec := specs[ki]
		tr, err := spec.trace(&opt, lineBytes)
		if err != nil {
			return fmt.Errorf("accuracy: tracing %s: %w", spec.name, err)
		}
		// All axis points with equal store keys share one cache
		// simulation, one PC table and one representative selection;
		// with the default axes that is a single preparation per kernel
		// (warps, MSHRs and bandwidth influence none of them). The
		// kernel fan-out provides the parallelism, so prep builds on
		// one worker.
		memo := prep.ForTrace(tr, opt.Seed, 1)
		for ai, ax := range axes {
			for pi, pol := range pols {
				slot := base + ai*len(pols) + pi
				if slot >= evaluated {
					continue
				}
				res, err := evalPoint(tr, memo, spec, ax, pol, opt.Obs)
				if err != nil {
					return fmt.Errorf("accuracy: %s @ %s/%s: %w", spec.name, ax.Name, pol, err)
				}
				results[slot] = res
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, r := range results {
		if r != nil {
			rep.Results = append(rep.Results, *r)
		}
	}
	for _, pol := range pols {
		rep.Summaries = append(rep.Summaries, summarize(pol.String(), rep.Results))
	}
	return rep, nil
}

// evalPoint runs the model and the timing oracle on one point.
func evalPoint(tr *trace.Kernel, memo *prep.Memo, sp *kernelSpec, ax AxisPoint, pol config.Policy,
	ob *obs.Observer) (*Result, error) {
	est, err := estimate(memo, ax.Cfg, pol, ob)
	if err != nil {
		return nil, err
	}
	orc, err := timing.Simulate(tr, ax.Cfg, pol)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Kernel:        sp.name,
		Generated:     sp.gen != nil,
		Axis:          ax.Name,
		Policy:        pol.String(),
		ModelCPI:      est.CPI,
		OracleCPI:     orc.CPI,
		RelErr:        stats.RelErr(est.CPI, orc.CPI),
		Stack:         stackMap(est.Stack),
		OracleStalls:  orc.StallBreakdown(),
		DominantStall: dominantStall(est.Stack),
	}
	if ob != nil && ob.Metrics != nil {
		ob.Counter("accuracy.points").Inc()
		ob.Histogram("accuracy.relerr").Observe(res.RelErr)
	}
	return res, nil
}

// estimate runs full GPUMech at cfg on the clustering representative,
// reading the structural prep from memo.
func estimate(memo *prep.Memo, cfg config.Config, pol config.Policy, ob *obs.Observer) (*model.Estimate, error) {
	ent, err := memo.Entry(cfg, nil, ob)
	if err != nil {
		return nil, err
	}
	return model.RunWithRepresentative(model.Inputs{
		Cfg:     cfg,
		Profile: ent.Profile,
		Policy:  pol,
		Level:   model.MTMSHRBand,
		Workers: 1, // point-level parallelism comes from the kernel fan-out
		Obs:     ob,
	}, ent.Table, ent.WarpProfiles, ent.Rep)
}

// stackMap converts the CPI stack to a category-keyed map for the JSON
// document (encoding/json sorts the keys).
func stackMap(s cpistack.Stack) map[string]float64 {
	out := make(map[string]float64, len(cpistack.Categories()))
	for _, c := range cpistack.Categories() {
		out[c.String()] = s[c]
	}
	return out
}

// dominantStall names the largest non-base CPI-stack component — the
// model's attribution of where the point's cycles went. Base-dominated
// points report "base".
func dominantStall(s cpistack.Stack) string {
	best, bestV := cpistack.Category(0), 0.0
	found := false
	for _, c := range cpistack.Categories() {
		if c == cpistack.Base {
			continue
		}
		if !found || s[c] > bestV {
			best, bestV, found = c, s[c], true
		}
	}
	if !found || bestV <= 0 {
		return cpistack.Base.String()
	}
	return best.String()
}

// summarize aggregates one policy's results into the CDF and worst-case
// views. Results arrive in plan order; ties in the worst-case sort break
// on that order, so the summary is deterministic.
func summarize(policy string, results []Result) PolicySummary {
	var errs []float64
	var mine []Result
	for _, r := range results {
		if r.Policy == policy {
			errs = append(errs, r.RelErr)
			mine = append(mine, r)
		}
	}
	sum := PolicySummary{
		Policy:       policy,
		N:            len(errs),
		MeanRelErr:   stats.Mean(errs),
		MedianRelErr: stats.Median(errs),
		MaxRelErr:    stats.Max(errs),
		FracBelow10:  stats.FracBelow(errs, 0.10),
		FracBelow30:  stats.FracBelow(errs, 0.30),
	}
	buckets := stats.Buckets(errs)
	labels := stats.BucketLabels()
	for i := range buckets {
		sum.CDF = append(sum.CDF, BucketCount{Label: labels[i], Count: buckets[i]})
	}
	sort.SliceStable(mine, func(i, j int) bool { return mine[i].RelErr > mine[j].RelErr })
	n := len(mine)
	if n > 5 {
		n = 5
	}
	sum.Worst = append(sum.Worst, mine[:n]...)
	return sum
}
