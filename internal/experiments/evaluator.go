// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI and VII): the SRAD component study (Fig. 4), the
// representative-warp selection comparison (Fig. 7), the five-model
// comparisons under RR and GTO (Figs. 11–12), the warp/MSHR/bandwidth
// sweeps (Figs. 13–15), the CPI-stack scaling study (Fig. 16), and the
// speedup measurement of Section VI-D.
//
// The Evaluator is the shared engine: it traces each kernel once, then
// evaluates the oracle and all models (Table II) for every hardware
// configuration a figure needs, caching results so figures share work.
// With Options.Workers != 1 the work fans out over a bounded pool at the
// (kernel, configuration, policy, model/oracle) grain, and each kernel's
// emulation over as many block ranges; figure output is byte-identical
// to the sequential run at any worker count.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"gpumech/internal/baseline"
	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/core/interval"
	"gpumech/internal/core/model"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/parallel"
	"gpumech/internal/prep"
	"gpumech/internal/timing"
	"gpumech/internal/trace"
)

// Options configures a harness run.
type Options struct {
	// Kernels restricts the benchmark set (nil = all registered kernels).
	Kernels []string
	// Blocks overrides the grid size (0 = three times baseline system
	// occupancy, the paper's methodology).
	Blocks int
	// Quick reduces the kernel set to a representative dozen and trims
	// sweep points; used by tests and -quick runs.
	Quick bool
	// Seed drives the synthetic kernel inputs.
	Seed int64
	// Log receives progress lines (nil = silent). Lines arrive in the
	// same order as the sequential run even when work is parallel.
	Log io.Writer

	// Workers bounds the worker pool (0 = GPUMECH_WORKERS or GOMAXPROCS,
	// 1 = the sequential path). Every figure, table and CPI stack is
	// byte-identical at any worker count; only wall-clock and the
	// recorded pipeline timings vary.
	Workers int

	// Obs attaches an observability handle: each trace, cache simulation,
	// evaluation point and oracle run emits spans and per-stage metrics.
	// Nil (the default) disables instrumentation; figures are identical
	// either way.
	Obs *obs.Observer
}

func (o *Options) kernelSet() []string {
	if len(o.Kernels) > 0 {
		return o.Kernels
	}
	if o.Quick {
		return []string{
			"rodinia_srad1", "rodinia_kmeans_invert", "rodinia_cfd_step_factor",
			"rodinia_cfd_compute_flux", "rodinia_bfs", "rodinia_hotspot",
			"parboil_sgemm", "parboil_spmv", "parboil_sad_calc8",
			"sdk_blackscholes", "sdk_transpose_naive", "sdk_reduction",
		}
	}
	return kernels.PaperNames()
}

// logFunc is the progress sink a work item writes to: the shared log in
// the sequential path, a worker-owned buffer in the parallel path.
type logFunc func(format string, args ...any)

// Eval holds every model's prediction and the oracle measurement for one
// (kernel, configuration, policy) point.
type Eval struct {
	Kernel string
	Cfg    config.Config
	Policy config.Policy

	Oracle float64 // detailed-simulation CPI

	// Table II models.
	Naive  float64
	Markov float64
	MT     float64
	MTMSHR float64
	Full   float64 // MT_MSHR_BAND = GPUMech

	// Full model under the Figure 7 selection heuristics.
	FullMax float64
	FullMin float64

	Stack cpistack.Stack // CPI stack of the full model

	// OracleStalls is the oracle's measured share of core cycles per
	// stall reason (timing.Result.StallBreakdown).
	OracleStalls map[string]float64
}

// Errs returns the relative error of each Table II model against the
// oracle, in the order Naive, Markov, MT, MT_MSHR, MT_MSHR_BAND.
func (ev *Eval) Errs() [5]float64 {
	rel := func(p float64) float64 {
		if ev.Oracle == 0 {
			return 0
		}
		e := (p - ev.Oracle) / ev.Oracle
		if e < 0 {
			e = -e
		}
		return e
	}
	return [5]float64{rel(ev.Naive), rel(ev.Markov), rel(ev.MT), rel(ev.MTMSHR), rel(ev.Full)}
}

// ModelNames lists the Table II model display names, index-aligned with
// Eval.Errs.
func ModelNames() [5]string {
	return [5]string{"Naive_Interval", "Markov_Chain", "MT", "MT_MSHR", "MT_MSHR_BAND"}
}

// Timing records the wall-clock cost of each pipeline stage for one kernel
// at the baseline configuration (Section VI-D).
type Timing struct {
	Kernel     string
	TraceInsts int64
	TraceSecs  float64 // functional emulation (excluded from speedup, as in the paper)

	// OneTimeSecs is the per-input profiling cost: interval summaries of
	// every warp, clustering, and full profiles of the representatives.
	// Per Section VI-D it is paid once per input and not again when
	// exploring hardware configurations.
	OneTimeSecs float64

	// Per-configuration costs: the cache simulation and the model
	// (representative-warp interval algorithm + multi-warp and
	// contention evaluation) must rerun for each hardware configuration.
	CacheSimSecs float64
	ModelSecs    float64

	OracleSecs   float64
	OracleCycles int64
}

// Speedup returns the paper's configuration-exploration metric: detailed-
// simulation time over per-configuration model time (cache simulation +
// representative-warp interval analysis + model evaluation).
func (t *Timing) Speedup() float64 {
	d := t.CacheSimSecs + t.ModelSecs
	if d <= 0 {
		return 0
	}
	return t.OracleSecs / d
}

// kernelCtx holds one traced kernel and its structural-prep memo (no
// profile store). Each prep key and each cache-profile key resolves at
// most once, so concurrent points of the same kernel share the work.
type kernelCtx struct {
	name string
	tr   *trace.Kernel
	memo *prep.Memo
}

// Evaluator runs and caches evaluations kernel by kernel.
type Evaluator struct {
	opt     Options
	workers int

	mu      sync.Mutex // guards cur, evals and timings
	cur     *kernelCtx // most recently traced kernel (direct-Eval path)
	evals   map[string]*Eval
	timings map[string]*Timing

	logMu sync.Mutex // serializes sequential-path writes to opt.Log
}

// NewEvaluator returns an Evaluator over the given options.
func NewEvaluator(opt Options) *Evaluator {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	return &Evaluator{
		opt:     opt,
		workers: parallel.Workers(opt.Workers),
		evals:   make(map[string]*Eval),
		timings: make(map[string]*Timing),
	}
}

// Kernels returns the benchmark set of this run.
func (e *Evaluator) Kernels() []string { return e.opt.kernelSet() }

// Baseline returns the Table I configuration.
func (e *Evaluator) Baseline() config.Config { return config.Baseline() }

// Workers returns the resolved worker count of this run.
func (e *Evaluator) Workers() int { return e.workers }

func (e *Evaluator) logf(format string, args ...any) {
	if e.opt.Log == nil {
		return
	}
	e.logMu.Lock()
	fmt.Fprintf(e.opt.Log, format+"\n", args...)
	e.logMu.Unlock()
}

func cfgSig(c config.Config, pol config.Policy) string {
	return fmt.Sprintf("w%d/m%d/b%g/c%d/%s", c.WarpsPerCore, c.MSHREntries, c.DRAMBandwidthGBps, c.Cores, pol)
}

// traceKernel builds and traces a kernel, recording its Timing entry. It
// is safe to call from multiple workers for different kernels.
func (e *Evaluator) traceKernel(name string, logf logFunc) (*kernelCtx, error) {
	info, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	blocks := e.opt.Blocks
	if blocks == 0 {
		blocks = kernels.DefaultBlocks(info.WarpsPerBlock)
	}
	sp := e.opt.Obs.StartSpan("trace")
	sp.SetStr("kernel", name)
	start := time.Now()
	l, err := info.EmuLaunch(kernels.Scale{Blocks: blocks, Seed: e.opt.Seed}, config.Baseline().L1LineBytes)
	if err != nil {
		sp.End()
		return nil, err
	}
	var st emu.Stats
	l.Workers, l.Stats = e.workers, &st // one worker keeps the whole run sequential
	tr, err := emu.Run(l)
	if err != nil {
		sp.End()
		return nil, err
	}
	e.opt.Obs.ObserveSince("stage.trace.seconds", start)
	sp.SetInt("blocks", int64(tr.Blocks))
	sp.SetInt("warps", int64(len(tr.Warps)))
	sp.SetInt("instructions", tr.TotalInsts())
	st.Observe(sp, e.opt.Obs)
	sp.End()
	if o := e.opt.Obs; o != nil && o.Metrics != nil {
		o.Counter("trace.kernels").Inc()
		o.Counter("trace.instructions").Add(tr.TotalInsts())
	}
	kc := &kernelCtx{name: name, tr: tr, memo: prep.ForTrace(tr, e.opt.Seed, e.workers)}
	e.mu.Lock()
	if _, ok := e.timings[name]; !ok {
		e.timings[name] = &Timing{Kernel: name, TraceSecs: time.Since(start).Seconds(), TraceInsts: tr.TotalInsts()}
	}
	e.mu.Unlock()
	logf("traced %s: %d blocks, %d warps, %d instructions (%.2fs)",
		name, tr.Blocks, len(tr.Warps), tr.TotalInsts(), time.Since(start).Seconds())
	return kc, nil
}

// ensureKernel returns a context for the named kernel, re-tracing only
// when it is not the current one. Only one kernel trace is held by this
// direct path at a time; the parallel plan executor manages its own
// contexts (at most Workers of them live at once).
func (e *Evaluator) ensureKernel(name string) (*kernelCtx, error) {
	e.mu.Lock()
	if e.cur != nil && e.cur.name == name {
		kc := e.cur
		e.mu.Unlock()
		return kc, nil
	}
	e.mu.Unlock()
	kc, err := e.traceKernel(name, e.logf)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.cur = kc
	e.mu.Unlock()
	return kc, nil
}

func (e *Evaluator) cachedEval(key string) (*Eval, bool) {
	e.mu.Lock()
	ev, ok := e.evals[key]
	e.mu.Unlock()
	return ev, ok
}

// Eval evaluates (and caches) one point. The oracle and all Table II
// models are computed together.
func (e *Evaluator) Eval(kernel string, cfg config.Config, pol config.Policy) (*Eval, error) {
	if ev, ok := e.cachedEval(kernel + "|" + cfgSig(cfg, pol)); ok {
		return ev, nil
	}
	kc, err := e.ensureKernel(kernel)
	if err != nil {
		return nil, err
	}
	return e.evalPoint(kc, cfg, pol, e.logf)
}

// evalPoint computes one (kernel, configuration, policy) point on an
// already-traced kernel. With more than one worker the Table II model
// chain and the detailed timing oracle run as two concurrent work items;
// they only share read-only inputs (the trace and the cache profile), and
// each owns disjoint Eval fields, so the split cannot change any result.
func (e *Evaluator) evalPoint(kc *kernelCtx, cfg config.Config, pol config.Policy, logf logFunc) (*Eval, error) {
	key := kc.name + "|" + cfgSig(cfg, pol)
	if ev, ok := e.cachedEval(key); ok {
		return ev, nil
	}
	isBaseline := cfgSig(cfg, pol) == cfgSig(config.Baseline(), config.RR)

	psp := e.opt.Obs.StartSpan("eval-point")
	defer psp.End()
	psp.SetStr("kernel", kc.name)
	psp.SetStr("config", cfgSig(cfg, pol))
	po := e.opt.Obs.WithSpan(psp)

	ev := &Eval{Kernel: kc.name, Cfg: cfg, Policy: pol}
	var tm stageTimes
	var oracleSecs float64
	var oracleCycles int64

	runModels := func() error {
		ent, err := kc.memo.Entry(cfg, psp, po)
		if err != nil {
			return err
		}
		in := model.Inputs{Cfg: cfg, Profile: ent.Profile, Policy: pol, Workers: e.workers, Obs: po}
		runLevel := func(lvl model.Level, rep int) (float64, cpistack.Stack, error) {
			in.Level = lvl
			est, err := model.RunWithRepresentative(in, ent.Table, ent.WarpProfiles, rep)
			if err != nil {
				return 0, cpistack.Stack{}, err
			}
			return est.CPI, est.Stack, nil
		}
		if ev.MT, _, err = runLevel(model.MT, ent.Rep); err != nil {
			return err
		}
		if ev.MTMSHR, _, err = runLevel(model.MTMSHR, ent.Rep); err != nil {
			return err
		}
		if ev.Full, ev.Stack, err = runLevel(model.MTMSHRBand, ent.Rep); err != nil {
			return err
		}
		if ev.Naive, err = baseline.NaiveInterval(ent.WarpProfiles[ent.Rep], cfg.WarpsPerCore); err != nil {
			return err
		}
		if ev.Markov, err = baseline.MarkovChain(ent.WarpProfiles[ent.Rep], cfg.WarpsPerCore); err != nil {
			return err
		}
		if ev.FullMax, _, err = runLevel(model.MTMSHRBand, ent.MaxRep); err != nil {
			return err
		}
		if ev.FullMin, _, err = runLevel(model.MTMSHRBand, ent.MinRep); err != nil {
			return err
		}
		if isBaseline {
			tm, err = timeStages(kc.tr, cfg, pol, e.workers)
		}
		return err
	}

	runOracle := func() error {
		sp := po.StartSpan("oracle")
		start := time.Now()
		orc, err := timing.Simulate(kc.tr, cfg, pol)
		if err != nil {
			sp.End()
			return err
		}
		ev.Oracle = orc.CPI
		ev.OracleStalls = orc.StallBreakdown()
		oracleSecs = time.Since(start).Seconds()
		oracleCycles = orc.Cycles
		po.ObserveSince("stage.oracle.seconds", start)
		sp.SetInt("cycles", orc.Cycles)
		sp.End()
		if po != nil && po.Metrics != nil {
			po.Counter("oracle.runs").Inc()
			po.Histogram("oracle.cpi").Observe(orc.CPI)
		}
		return nil
	}

	if e.workers > 1 {
		g := parallel.NewGroup(2)
		g.Go(runModels)
		g.Go(runOracle)
		if err := g.Wait(); err != nil {
			return nil, err
		}
	} else {
		if err := runModels(); err != nil {
			return nil, err
		}
		if err := runOracle(); err != nil {
			return nil, err
		}
	}

	logf("  %s %s: oracle %.3f | naive %.3f markov %.3f mt %.3f mshr %.3f full %.3f",
		kc.name, cfgSig(cfg, pol), ev.Oracle, ev.Naive, ev.Markov, ev.MT, ev.MTMSHR, ev.Full)

	e.mu.Lock()
	if isBaseline {
		if t := e.timings[kc.name]; t != nil {
			t.CacheSimSecs = tm.cacheSim
			t.OneTimeSecs = tm.oneTime
			t.ModelSecs = tm.model
			t.OracleSecs = oracleSecs
			t.OracleCycles = oracleCycles
		}
	}
	if prev, ok := e.evals[key]; ok {
		ev = prev // a concurrent duplicate landed first; results are identical
	} else {
		e.evals[key] = ev
	}
	e.mu.Unlock()
	return ev, nil
}

// stageTimes is one uncached build's wall-clock per Section VI-D stage.
type stageTimes struct {
	cacheSim, oneTime, model float64
}

// timeStages times one explicit uncached build of tr at cfg, without the
// observer, so the Section VI-D columns measure the same stages whichever
// point filled the prep memo: the cache simulation, the one-time
// structural prep (model.StructuralReps), and the per-configuration
// model, which reruns the interval algorithm on the representative warp
// only and evaluates the full model once (the paper's exploration mode).
func timeStages(tr *trace.Kernel, cfg config.Config, pol config.Policy, workers int) (stageTimes, error) {
	var tm stageTimes
	start := time.Now()
	prof, err := cache.Simulate(tr, cfg.ProfileConfig())
	if err != nil {
		return tm, err
	}
	tm.cacheSim = time.Since(start).Seconds()
	in := model.Inputs{Kernel: tr, Cfg: cfg, Profile: prof, Policy: pol, Level: model.MTMSHRBand, Workers: workers}
	start = time.Now()
	tbl, profiles, reps, err := model.StructuralReps(in)
	if err != nil {
		return tm, err
	}
	tm.oneTime = time.Since(start).Seconds()
	start = time.Now()
	rep := reps[cluster.Clustering]
	if _, err := interval.Build(tr.Warps[rep], tr.Prog.NumRegs+tr.Prog.NumPreds, cfg.IssueRate(), tbl); err != nil {
		return tm, err
	}
	if _, err := model.RunWithRepresentative(in, tbl, profiles, rep); err != nil {
		return tm, err
	}
	tm.model = time.Since(start).Seconds()
	return tm, nil
}

// point is one (configuration, policy) evaluation of a kernel.
type point struct {
	cfg config.Config
	pol config.Policy
}

// kernelPlan is every point one kernel needs, in sequential-run order
// (the baseline point, when present, comes first).
type kernelPlan struct {
	kernel string
	points []point
}

// executePlans evaluates every plan. The sequential path replays the
// exact historical loop; the parallel path fans kernels out over the
// pool, runs each kernel's first point eagerly (it records the Section
// VI-D timings, as in the sequential order) and then fans the remaining
// points out as work items. Progress lines are buffered per work item
// and released in plan order, so the log reads identically either way.
func (e *Evaluator) executePlans(plans []kernelPlan) error {
	if e.workers <= 1 {
		for _, pl := range plans {
			for _, p := range pl.points {
				if _, err := e.Eval(pl.kernel, p.cfg, p.pol); err != nil {
					return err
				}
			}
		}
		return nil
	}
	kernelLog := parallel.NewOrderedWriter(e.opt.Log)
	return parallel.ForEach(e.workers, len(plans), func(i int) error {
		var buf bytes.Buffer
		defer func() { kernelLog.Emit(i, buf.Bytes()) }()
		pl := plans[i]
		logf := func(format string, args ...any) {
			if e.opt.Log != nil {
				fmt.Fprintf(&buf, format+"\n", args...)
			}
		}
		kc, err := e.traceKernel(pl.kernel, logf)
		if err != nil {
			return err
		}
		if len(pl.points) == 0 {
			return nil
		}
		if _, err := e.evalPoint(kc, pl.points[0].cfg, pl.points[0].pol, logf); err != nil {
			return err
		}
		rest := pl.points[1:]
		pointLog := parallel.NewOrderedWriter(&buf)
		return parallel.ForEach(e.workers, len(rest), func(j int) error {
			var pb bytes.Buffer
			defer func() { pointLog.Emit(j, pb.Bytes()) }()
			plogf := func(format string, args ...any) {
				if e.opt.Log != nil {
					fmt.Fprintf(&pb, format+"\n", args...)
				}
			}
			_, err := e.evalPoint(kc, rest[j].cfg, rest[j].pol, plogf)
			return err
		})
	})
}

// Timings returns the per-kernel pipeline timings recorded at the baseline
// configuration, in kernel-set order.
func (e *Evaluator) Timings() []*Timing {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*Timing
	for _, k := range e.Kernels() {
		if t, ok := e.timings[k]; ok {
			out = append(out, t)
		}
	}
	return out
}
