// Package model orchestrates the full GPUMech pipeline (Figure 5 of the
// paper): per-PC latency construction from the cache profile, the interval
// algorithm over every warp, representative-warp selection, the multi-warp
// multithreading model, the resource-contention model, and CPI-stack
// construction.
package model

import (
	"fmt"
	"time"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/contention"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/core/interval"
	"gpumech/internal/core/multiwarp"
	"gpumech/internal/isa"
	"gpumech/internal/obs"
	"gpumech/internal/parallel"
	"gpumech/internal/trace"
)

// mergeWindowFactor scales the MSHR-merge window relative to the average
// miss latency (see interval.PCTable.MergeWindow).
const mergeWindowFactor = 4

// Level selects how much of GPUMech is applied (Table II of the paper).
type Level int

const (
	// MT models multithreading only (Section IV-A).
	MT Level = iota
	// MTMSHR adds the MSHR queueing model (Section IV-B1).
	MTMSHR
	// MTMSHRBand is full GPUMech: multithreading + MSHR + DRAM bandwidth
	// (Section IV-B2).
	MTMSHRBand
)

func (l Level) String() string {
	switch l {
	case MT:
		return "MT"
	case MTMSHR:
		return "MT_MSHR"
	case MTMSHRBand:
		return "MT_MSHR_BAND"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Tuning toggles the implementation extensions this reproduction adds on
// top of the paper's printed equations, so ablation studies can measure
// what each one buys (see DESIGN.md section 3). The zero value is the
// production configuration with every extension enabled.
type Tuning struct {
	// DisableMergeWindow counts every repeated line touch as a fresh MSHR
	// allocation and DRAM request, as the printed equations do.
	DisableMergeWindow bool
	// DisableIssueFloor evaluates Eq. 7 without the issue-rate bound.
	DisableIssueFloor bool
	// DisableMSHRBudgetCap charges Eqs. 18-20 without work conservation.
	DisableMSHRBudgetCap bool
	// DisableBWRoofline relies on Eq. 21's cap alone under saturation.
	DisableBWRoofline bool
}

// PaperStrict returns the Tuning with every extension disabled — the
// equations exactly as printed (with only the min/max typo corrections).
func PaperStrict() Tuning {
	return Tuning{
		DisableMergeWindow:   true,
		DisableIssueFloor:    true,
		DisableMSHRBudgetCap: true,
		DisableBWRoofline:    true,
	}
}

// Inputs bundles everything one model evaluation needs.
type Inputs struct {
	Kernel  *trace.Kernel
	Cfg     config.Config
	Profile *cache.Profile // from cache.Simulate on the same kernel+config
	Policy  multiwarp.Policy
	Method  cluster.Method // representative-warp selection; default Clustering
	Level   Level          // default MTMSHRBand
	Tuning  Tuning         // ablation switches; zero value = production

	// Workers bounds the goroutines used for the per-warp fan-out
	// (0 = GPUMECH_WORKERS or GOMAXPROCS, 1 = sequential). Results are
	// byte-identical at any worker count.
	Workers int

	// Obs receives per-stage spans and metrics (nil = disabled). The
	// observer never influences any estimate: enabling it leaves every
	// figure byte-identical.
	Obs *obs.Observer
}

// Estimate is the model's prediction for one kernel.
type Estimate struct {
	CPI float64 // CPI_final (Eq. 3)

	CPIMultithreading float64 // Eq. 7 component
	CPIContention     float64 // Eq. 17 component

	RepWarp    int // index of the representative warp in Kernel.Warps
	RepProfile *interval.Profile

	Multiwarp  multiwarp.Result
	Contention contention.Result

	Stack cpistack.Stack
}

// IPCPerCore returns the predicted core IPC.
func (e *Estimate) IPCPerCore() float64 {
	if e.CPI == 0 {
		return 0
	}
	return 1 / e.CPI
}

// BuildPCTable derives the per-PC latency and miss tables from the
// configuration and the cache profile (Section V-B): compute PCs get their
// class latency, memory PCs their AMAT.
func BuildPCTable(prog *isa.Program, cfg config.Config, prof *cache.Profile) *interval.PCTable {
	n := len(prog.Instrs)
	t := &interval.PCTable{
		Latency:    make([]float64, n),
		L1MissRate: make([]float64, n),
		L2MissRate: make([]float64, n),
		DistL1:     make([]float64, n),
		DistL2:     make([]float64, n),
		DistDRAM:   make([]float64, n),
	}
	if prof != nil {
		// Merging persists while a miss is in flight; under contention the
		// in-flight time exceeds the uncontended round-trip, so the window
		// is a small multiple of the average miss latency.
		t.MergeWindow = mergeWindowFactor * prof.AvgMissLatency()
	}
	for pc := range prog.Instrs {
		op := prog.Instrs[pc].Op
		switch op.Class() {
		case isa.ClassALU, isa.ClassCtrl, isa.ClassBar, isa.ClassExit:
			t.Latency[pc] = float64(cfg.ALULatency)
		case isa.ClassFP:
			t.Latency[pc] = float64(cfg.FPLatency)
		case isa.ClassSFU:
			t.Latency[pc] = float64(cfg.SFULatency)
		case isa.ClassSMem:
			t.Latency[pc] = float64(cfg.SMemLatency)
		case isa.ClassGMem:
			t.Latency[pc] = float64(cfg.L1Latency)
			if prof != nil {
				t.Latency[pc] = prof.AMAT(pc)
				if s := prof.Stats(pc); s != nil && !s.IsStore {
					t.L1MissRate[pc] = s.L1ReqMissRate()
					t.L2MissRate[pc] = s.L2ReqMissRate()
					t.DistL1[pc], t.DistL2[pc], t.DistDRAM[pc] = s.MissEventDist()
				}
			}
		}
	}
	return t
}

// BuildWarpProfilesWorkers runs the interval algorithm over every warp
// of the kernel on an explicit worker count (0 = GPUMECH_WORKERS or
// GOMAXPROCS, 1 = sequential). The unified register namespace covers
// general plus predicate registers. Each warp's profile is independent
// given the PC table, and every worker writes only its own index slot, so
// the result is identical at any worker count.
func BuildWarpProfilesWorkers(k *trace.Kernel, cfg config.Config, t *interval.PCTable, workers int) ([]*interval.Profile, error) {
	numRegs := k.Prog.NumRegs + k.Prog.NumPreds
	profiles := make([]*interval.Profile, len(k.Warps))
	err := parallel.ForEach(parallel.Workers(workers), len(k.Warps), func(i int) error {
		var err error
		if profiles[i], err = interval.Build(k.Warps[i], numRegs, cfg.IssueRate(), t); err != nil {
			return fmt.Errorf("model: warp %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return profiles, nil
}

// StructuralReps computes the structural prep of one configuration: the
// per-PC latency table and the representative warps' interval profiles.
// It summarizes every warp (interval.Summarize), selects the Clustering,
// Max and Min representatives on the summaries (reps is indexed by
// cluster.Method), and then builds full profiles for those warps alone.
// profiles is index-aligned with the warps and nil except at the
// representatives. Selection reads only what a summary holds, so the
// representatives and their profiles are the ones BuildWarpProfilesWorkers
// plus SelectRepresentative yield.
func StructuralReps(in Inputs) (t *interval.PCTable, profiles []*interval.Profile, reps [3]int, err error) {
	if in.Kernel == nil {
		return nil, nil, reps, fmt.Errorf("model: nil kernel trace")
	}
	if in.Profile == nil {
		return nil, nil, reps, fmt.Errorf("model: nil cache profile (run cache.Simulate first)")
	}
	o := in.Obs
	start := time.Now()
	t = BuildPCTable(in.Kernel.Prog, in.Cfg, in.Profile)
	if in.Tuning.DisableMergeWindow {
		t.MergeWindow = 0
	}
	o.ObserveSince("stage.pctable.seconds", start)

	// The pass over every warp keeps each warp's totals and interval
	// count only (interval.Summarize); selection reads nothing else.
	sp := o.StartSpan("interval-profiling")
	start = time.Now()
	numRegs := in.Kernel.Prog.NumRegs + in.Kernel.Prog.NumPreds
	sums := make([]*interval.Profile, len(in.Kernel.Warps))
	counts := make([]int, len(sums))
	err = parallel.ForEach(parallel.Workers(in.Workers), len(sums), func(i int) error {
		var err error
		if sums[i], counts[i], err = interval.Summarize(in.Kernel.Warps[i], numRegs, in.Cfg.IssueRate(), t); err != nil {
			return fmt.Errorf("model: warp %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		sp.End()
		return nil, nil, reps, err
	}
	o.ObserveSince("stage.interval_profiling.seconds", start)
	sp.SetInt("warps", int64(len(sums)))
	sp.End()
	if o != nil && o.Metrics != nil {
		intervals := o.Histogram("interval.intervals_per_warp")
		stalls := o.Histogram("interval.stall_cycles_per_warp")
		for i, p := range sums {
			intervals.Observe(float64(counts[i]))
			stalls.Observe(p.Stall)
		}
		o.Counter("interval.warps_profiled").Add(int64(len(sums)))
	}

	if reps[cluster.Clustering], err = SelectRepresentative(sums, cluster.Clustering, o); err != nil {
		return nil, nil, reps, err
	}
	// Neither selection can fail on the non-empty set clustering took.
	reps[cluster.Max], _ = cluster.Select(sums, cluster.Max)
	reps[cluster.Min], _ = cluster.Select(sums, cluster.Min)
	profiles = make([]*interval.Profile, len(sums))
	built := 0
	for _, r := range reps {
		if profiles[r] != nil {
			continue
		}
		if profiles[r], err = interval.Build(in.Kernel.Warps[r], numRegs, in.Cfg.IssueRate(), t); err != nil {
			return nil, nil, reps, fmt.Errorf("model: warp %d: %w", r, err)
		}
		built++
	}
	if o != nil && o.Metrics != nil {
		o.Counter("interval.reps_profiled").Add(int64(built))
	}
	return t, profiles, reps, nil
}

// SelectRepresentative picks the representative warp under method m with
// the clustering span and stage metric Run has always emitted.
func SelectRepresentative(profiles []*interval.Profile, m cluster.Method, o *obs.Observer) (int, error) {
	sp := o.StartSpan("clustering")
	start := time.Now()
	rep, err := cluster.SelectObs(profiles, m, o)
	if err != nil {
		sp.End()
		return 0, err
	}
	o.ObserveSince("stage.clustering.seconds", start)
	sp.SetInt("repWarp", int64(rep))
	sp.End()
	return rep, nil
}

// Run evaluates GPUMech on the inputs: the structural prep
// (StructuralReps), then the multi-warp, contention and CPI-stack stages
// on the representative of in.Method.
func Run(in Inputs) (*Estimate, error) {
	if in.Kernel == nil {
		return nil, fmt.Errorf("model: nil kernel trace")
	}
	if err := in.Cfg.Validate(); err != nil {
		return nil, err
	}
	t, profiles, reps, err := StructuralReps(in)
	if err != nil {
		return nil, err
	}
	if in.Method < 0 || int(in.Method) >= len(reps) {
		return nil, fmt.Errorf("model: unknown selection method %d", in.Method)
	}
	return runWithProfile(in, t, profiles, reps[in.Method])
}

// RunWithRepresentative evaluates the model reusing previously built warp
// profiles and a fixed representative warp. This is the paper's
// configuration-exploration mode (Section VI-D): when only hardware
// parameters change, clustering need not be repeated.
func RunWithRepresentative(in Inputs, t *interval.PCTable, profiles []*interval.Profile, rep int) (*Estimate, error) {
	if rep < 0 || rep >= len(profiles) {
		return nil, fmt.Errorf("model: representative warp %d out of range (%d warps)", rep, len(profiles))
	}
	return runWithProfile(in, t, profiles, rep)
}

func runWithProfile(in Inputs, t *interval.PCTable, profiles []*interval.Profile, rep int) (*Estimate, error) {
	o := in.Obs
	p := profiles[rep]
	sp := o.StartSpan("multi-warp")
	start := time.Now()
	mw, err := multiwarp.ModelWithOptions(p, in.Cfg.WarpsPerCore, in.Policy,
		multiwarp.Options{DisableIssueFloor: in.Tuning.DisableIssueFloor})
	o.ObserveSince("stage.multiwarp.seconds", start)
	sp.End()
	if err != nil {
		return nil, err
	}

	est := &Estimate{
		CPIMultithreading: mw.CPI,
		RepWarp:           rep,
		RepProfile:        p,
		Multiwarp:         mw,
	}

	if in.Level >= MTMSHR {
		sp = o.StartSpan("contention")
		start = time.Now()
		cin := contention.Inputs{
			Warps:                in.Cfg.WarpsPerCore,
			Cores:                in.Cfg.Cores,
			MSHRs:                in.Cfg.MSHREntries,
			AvgMissLatency:       in.Profile.AvgMissLatency(),
			DRAMServiceCycles:    in.Cfg.DRAMServiceCycles(),
			IssueRate:            in.Cfg.IssueRate(),
			SFUServiceCycles:     in.Cfg.SFUServiceCycles(),
			BaseCPI:              mw.CPI,
			DisableMSHRBudgetCap: in.Tuning.DisableMSHRBudgetCap,
			DisableBWRoofline:    in.Tuning.DisableBWRoofline,
		}
		ct, err := contention.Model(p, cin)
		o.ObserveSince("stage.contention.seconds", start)
		sp.End()
		if err != nil {
			return nil, err
		}
		if in.Level == MTMSHR {
			ct.CPI = ct.MSHRDelay / float64(p.Insts)
			ct.BWDelay = 0
			ct.SFUDelay = 0
		}
		est.Contention = ct
		est.CPIContention = ct.CPI
	}

	est.CPI = est.CPIMultithreading + est.CPIContention

	sp = o.StartSpan("cpi-stack")
	start = time.Now()
	stack, err := cpistack.Build(p, t, est.CPIMultithreading, est.Contention.MSHRDelay,
		est.Contention.BWDelay, est.Contention.SFUDelay)
	o.ObserveSince("stage.cpistack.seconds", start)
	sp.End()
	if err != nil {
		return nil, err
	}
	est.Stack = stack
	if o != nil && o.Metrics != nil {
		o.Counter("model.estimates").Inc()
		o.Histogram("model.cpi").Observe(est.CPI)
		o.Histogram("model.rep_intervals").Observe(float64(len(p.Intervals)))
		o.Histogram("model.rep_stall_cycles").Observe(p.Stall)
	}
	return est, nil
}
