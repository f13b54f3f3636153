// Package gpumech is a Go implementation of GPUMech, the interval-
// analysis-based GPU performance modeling technique of Huang, Lee, Kim and
// Lee (MICRO 2014), together with every substrate the technique needs: a
// functional SIMT emulator, a cache simulator, a detailed cycle-level
// timing simulator used as the validation oracle, the benchmark kernels of
// the evaluation, and the Naive-Interval and Markov-Chain baseline models.
//
// The typical flow mirrors the paper's Figure 5:
//
//	sess, err := gpumech.NewSession("sdk_vectoradd")   // trace the kernel once
//	est, err := sess.Estimate(gpumech.DefaultConfig(), gpumech.RR)
//	fmt.Println(est.CPI, est.Stack)                    // prediction + CPI stack
//	orc, err := sess.Oracle(gpumech.DefaultConfig(), gpumech.RR)
//	fmt.Println(orc.CPI)                               // detailed simulation
//
// A Session owns the kernel's instruction trace and can evaluate many
// hardware configurations, scheduling policies, model levels, and baseline
// models against it.
package gpumech

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpumech/internal/baseline"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/core/model"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/prep"
	"gpumech/internal/store"
	"gpumech/internal/timing"
	"gpumech/internal/trace"
)

// Observer is the observability handle threaded through a Session: a
// metrics registry plus a stage tracer (see internal/obs). A nil
// Observer disables all instrumentation at zero cost, and enabling one
// never changes any estimate or oracle figure.
type Observer = obs.Observer

// NewObserver bundles a metrics registry and a tracer; either may be nil.
func NewObserver(m *obs.Registry, t *obs.Tracer) *Observer { return obs.NewObserver(m, t) }

// Config is the hardware configuration (Table I of the paper).
type Config = config.Config

// DefaultConfig returns the paper's baseline configuration: 16 cores,
// 32-wide SIMT, 32 warps/core, 32 MSHRs, 192 GB/s DRAM.
func DefaultConfig() Config { return config.Baseline() }

// Policy is a warp scheduling policy.
type Policy = config.Policy

// Supported scheduling policies.
const (
	RR  = config.RR
	GTO = config.GTO
)

// ParsePolicy maps the user-facing policy names ("rr", "gto") onto a
// Policy — the shared validation for the -policy flag and the serve
// API's "policy" field.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "rr":
		return RR, nil
	case "gto":
		return GTO, nil
	}
	return RR, fmt.Errorf("unknown policy %q (want rr or gto)", s)
}

// ParseLevel maps the user-facing model-level names ("mt", "mshr",
// "full") onto a Level — the shared validation for the -level flag and
// the serve API's "level" field.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "mt":
		return MT, nil
	case "mshr":
		return MTMSHR, nil
	case "full":
		return MTMSHRBand, nil
	}
	return MTMSHRBand, fmt.Errorf("unknown level %q (want mt, mshr, full)", s)
}

// Level selects how much of GPUMech is applied (Table II).
type Level = model.Level

// Model levels: multithreading only, plus MSHR contention, plus DRAM
// bandwidth (full GPUMech).
const (
	MT         = model.MT
	MTMSHR     = model.MTMSHR
	MTMSHRBand = model.MTMSHRBand
)

// Method selects how the representative warp is chosen (Figure 7).
type Method = cluster.Method

// Representative-warp selection methods.
const (
	Clustering = cluster.Clustering
	MaxWarp    = cluster.Max
	MinWarp    = cluster.Min
)

// CPIStack is a predicted CPI broken into the Table III categories.
type CPIStack = cpistack.Stack

// Kernels returns the names of all bundled benchmark kernels.
func Kernels() []string { return kernels.Names() }

// KernelInfo describes a bundled kernel.
type KernelInfo struct {
	Name          string
	Suite         string
	Description   string
	ControlDiv    bool   // control-divergent warps
	MemDivergence string // none / low / medium / high
	WriteHeavy    bool
	WarpsPerBlock int
}

// KernelInfos returns metadata for every bundled kernel, sorted by name.
func KernelInfos() []KernelInfo {
	var out []KernelInfo
	for _, k := range kernels.All() {
		out = append(out, KernelInfo{
			Name:          k.Name,
			Suite:         k.Suite,
			Description:   k.Desc,
			ControlDiv:    k.ControlDiv,
			MemDivergence: k.MemDiv.String(),
			WriteHeavy:    k.WriteHeavy,
			WarpsPerBlock: k.WarpsPerBlock,
		})
	}
	return out
}

// Option customizes session creation.
type Option func(*sessionOpts)

type sessionOpts struct {
	blocks       int
	seed         int64
	line         int
	workers      int
	obs          *obs.Observer
	traceCache   string
	profileStore string
}

// WithBlocks sets the number of thread blocks to launch. The default
// gives every kernel at least three times the baseline system occupancy,
// matching the paper's methodology.
func WithBlocks(n int) Option { return func(o *sessionOpts) { o.blocks = n } }

// WithSeed sets the synthetic-input seed (default 1).
func WithSeed(seed int64) Option { return func(o *sessionOpts) { o.seed = seed } }

// WithWorkers bounds the goroutines one estimate fans out across warps,
// and the block ranges the emulator runs concurrently when the session
// traces its kernel (default: GPUMECH_WORKERS, then GOMAXPROCS; 1 forces
// the sequential path). Traces and estimates are byte-identical at any
// worker count.
func WithWorkers(n int) Option { return func(o *sessionOpts) { o.workers = n } }

// WithTraceCache points the session at a directory of reusable trace
// files, keyed by kernel, grid size, seed, and line size. On a hit the
// emulator is skipped and the trace is loaded; on a miss the kernel is
// traced and saved for the next session. Corrupt, unreadable or non-v2
// cache entries are re-traced and overwritten, never trusted.
func WithTraceCache(dir string) Option { return func(o *sessionOpts) { o.traceCache = dir } }

// WithProfileStore points the session at a content-addressed, disk-
// backed store of structural prep (internal/store): the cache profile,
// per-PC latency table, and the Clustering, Max and Min representative
// warps with their interval profiles, keyed by kernel, grid, seed, line
// size, and every configuration field they depend on: the disk tier
// under the session's in-memory prep memo. With a store configured the
// session defers tracing entirely: an estimate whose prep is already on
// disk never runs the emulator or the cache simulator, so warm profiles
// survive process restarts and are shareable across processes pointed
// at the same directory. Corrupt, truncated, or version-skewed entries
// are detected by checksum and rebuilt from scratch — estimates are
// byte-identical with and without the store.
//
// NewSessionFromTraceFile ignores this option: a foreign trace file's
// seed and line-size identity is unknown, and keying the store on a
// guess could alias different traces.
func WithProfileStore(dir string) Option { return func(o *sessionOpts) { o.profileStore = dir } }

// WithObserver attaches an observability handle: every pipeline stage the
// session runs (tracing, cache simulation, interval profiling,
// clustering, the multi-warp and contention models, CPI-stack
// construction, the oracle) emits a nested span and per-stage metrics.
// A nil observer — the default — disables instrumentation entirely; the
// hot paths then perform no allocations and no locking for it.
func WithObserver(o *Observer) Option { return func(so *sessionOpts) { so.obs = o } }

// Session holds one traced kernel and evaluates models and the oracle
// against it. Create with NewSession.
//
// Estimates follow the paper's profile-once, explore-many mode: the
// structural prep of a configuration (cache profile, PC table, interval
// profiles, representative warps) is built once per prep key and
// memoized, so every later estimate at that key — any warps, MSHRs,
// bandwidth, policy, level or selection method — runs only the
// multi-warp, contention and CPI-stack stages.
//
// A Session is safe for concurrent use: the trace is immutable once
// built, the prep memo is lock-guarded, and each key's prep is built at
// most once even when many goroutines request it simultaneously. Callers
// may therefore sweep hardware configurations from multiple goroutines
// (the paper's design-space exploration mode) and rely on results
// identical to sequential calls.
type Session struct {
	name    string
	info    *kernels.Info // nil for sessions loaded from a trace file
	workers int
	obs     *obs.Observer

	// Resolved trace identity: the grid, input seed, and cache line size
	// the kernel is (or will be) traced with. Together with the kernel
	// name and the configuration they form the profile store's key.
	blocks int
	seed   int64
	line   int

	traceCacheDir string

	// lazy holds the kernel trace, built at most once per session (at
	// creation without a store, on first need with one), plus the
	// metadata a store hit can answer without the trace existing.
	lazy *lazyTrace

	// memo is shared by every view of this session (see Observing): a
	// key's prep is resolved at most once process-wide no matter which
	// view asked first. Its disk tier is the profile store, when one is
	// configured; sessions with one defer tracing until an estimate
	// actually misses it.
	memo *prep.Memo
}

// lazyTrace is the session's at-most-once trace cell. The mutex also
// guards the store-supplied metadata, which lets a store-hit session
// answer Warps and TotalInsts without ever running the emulator.
type lazyTrace struct {
	mu  sync.Mutex
	tr  *trace.Kernel
	err error

	metaKnown  bool
	warps      int
	totalInsts int64
}

// Observing returns a view of s that reports to o instead of the
// observer the session was created with, while sharing the trace and the
// prep memo. A serving layer uses it to nest one request's evaluation
// spans under that request's span (via Observer.WithSpan) without
// re-tracing the kernel or abandoning memoized prep; the
// receiver is not modified and both views remain safe for concurrent
// use. Observing(nil) returns an uninstrumented view.
func (s *Session) Observing(o *Observer) *Session {
	d := *s
	d.obs = o
	return &d
}

// DefaultBlocks returns the grid size NewSession uses for a kernel with
// the given warps per block: at least three times the system occupancy at
// the baseline residency (32 warps/core on 16 cores), matching the
// paper's methodology ("at least 3x system occupancy thread blocks"). The
// division rounds up, so an awkward warps-per-block value never drops the
// grid below the 3x floor. At the largest swept residency (48 warps/core)
// this still gives two full occupancy rounds.
func DefaultBlocks(warpsPerBlock int) int {
	return kernels.DefaultBlocks(warpsPerBlock)
}

// NewSession builds the named kernel, runs the functional emulator, and
// returns a session holding its trace. With a profile store configured
// (WithProfileStore) tracing is deferred: the emulator runs only when an
// estimate, oracle, or baseline actually needs the trace, so a store-warm
// session never pays for it.
func NewSession(kernel string, opts ...Option) (*Session, error) {
	info, err := kernels.Get(kernel)
	if err != nil {
		return nil, err
	}
	o := sessionOpts{seed: 1, line: 128}
	for _, fn := range opts {
		fn(&o)
	}
	if o.blocks == 0 {
		o.blocks = DefaultBlocks(info.WarpsPerBlock)
	}
	s := &Session{
		name:          info.Name,
		info:          info,
		workers:       o.workers,
		obs:           o.obs,
		blocks:        o.blocks,
		seed:          o.seed,
		line:          o.line,
		traceCacheDir: o.traceCache,
		lazy:          &lazyTrace{},
	}
	if o.profileStore != "" {
		st, err := store.Open(o.profileStore, o.obs)
		if err != nil {
			return nil, err
		}
		s.memo = s.newMemo(st)
		// Defer tracing: the whole point of the store is that a warm key
		// never runs the emulator. Trace errors surface on first use.
		return s, nil
	}
	s.memo = s.newMemo(nil)
	if _, err := s.kernelTrace(o.obs); err != nil {
		return nil, err
	}
	return s, nil
}

// kernelTrace returns the session's trace, building it on first need:
// straight from the emulator by default, or through the trace cache when
// one is configured. The build happens at most once; the error, if any,
// is sticky (trace failures are deterministic).
func (s *Session) kernelTrace(o *obs.Observer) (*trace.Kernel, error) {
	s.lazy.mu.Lock()
	defer s.lazy.mu.Unlock()
	if s.lazy.tr != nil || s.lazy.err != nil {
		return s.lazy.tr, s.lazy.err
	}
	sp := o.StartSpan("trace")
	sp.SetStr("kernel", s.name)
	start := time.Now()
	tr, st, err := buildTrace(s.info, s.blocks, s.seed, s.line, s.workers, s.traceCacheDir)
	if err != nil {
		sp.End()
		s.lazy.err = err
		return nil, err
	}
	o.ObserveSince("stage.trace.seconds", start)
	sp.SetInt("blocks", int64(tr.Blocks))
	sp.SetInt("warps", int64(len(tr.Warps)))
	sp.SetInt("instructions", tr.TotalInsts())
	if st != nil {
		st.Observe(sp, o)
	}
	sp.End()
	// trace.kernels counts emulator runs, so a trace-cache hit adds none.
	if st != nil && o != nil && o.Metrics != nil {
		o.Counter("trace.kernels").Inc()
		o.Counter("trace.instructions").Add(tr.TotalInsts())
	}
	s.lazy.tr = tr
	s.lazy.metaKnown = true
	s.lazy.warps = len(tr.Warps)
	s.lazy.totalInsts = tr.TotalInsts()
	return tr, nil
}

// buildTrace produces the kernel trace: straight from the emulator by
// default, or through the trace cache when one is configured. Once prep
// is memoized the trace is the largest thing a session holds. The emulator
// runs blocks on up to workers goroutines (resolved by parallel.Workers);
// the stats say how, and are nil when a cached trace was loaded instead.
func buildTrace(info *kernels.Info, blocks int, seed int64, line, workers int, cacheDir string) (*trace.Kernel, *emu.Stats, error) {
	scale := kernels.Scale{Blocks: blocks, Seed: seed}
	path := ""
	if cacheDir != "" {
		path = filepath.Join(cacheDir,
			fmt.Sprintf("%s_b%d_s%d_l%d.trace", info.Name, blocks, seed, line))
		if tr, err := trace.Load(path); err == nil && tr.Name == info.Name {
			return tr, nil, nil
		}
	}
	l, err := info.EmuLaunch(scale, line)
	if err != nil {
		return nil, nil, err
	}
	st := new(emu.Stats)
	l.Workers, l.Stats = workers, st
	tr, err := emu.Run(l)
	if err != nil {
		return nil, nil, err
	}
	if path == "" {
		return tr, st, nil
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("gpumech: trace cache: %w", err)
	}
	if err := tr.Save(path); err != nil {
		return nil, nil, err
	}
	return tr, st, nil
}

// NewSessionFromTraceFile opens a session over a saved trace file instead
// of running the emulator. Evaluation streams the records through
// cursors. The kernel name is taken from the file and need not be a
// bundled kernel.
func NewSessionFromTraceFile(path string, opts ...Option) (*Session, error) {
	o := sessionOpts{seed: 1, line: 128}
	for _, fn := range opts {
		fn(&o)
	}
	sp := o.obs.StartSpan("trace-load")
	sp.SetStr("path", path)
	tr, err := trace.Load(path)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetStr("kernel", tr.Name)
	sp.SetInt("instructions", tr.TotalInsts())
	sp.End()
	return sessionFromTrace(tr, o), nil
}

// sessionFromTrace opens a session over an already-built trace.
func sessionFromTrace(tr *trace.Kernel, o sessionOpts) *Session {
	info, _ := kernels.Get(tr.Name) // best-effort metadata; nil is fine
	s := &Session{
		name:    tr.Name,
		info:    info,
		workers: o.workers,
		obs:     o.obs,
		blocks:  tr.Blocks,
		seed:    o.seed,
		line:    o.line,
		lazy: &lazyTrace{tr: tr, metaKnown: true,
			warps: len(tr.Warps), totalInsts: tr.TotalInsts()},
	}
	s.memo = s.newMemo(nil)
	return s
}

// newMemo returns the session's prep memo over its trace identity, with
// st (nil for none) as the disk tier. A store hit tells the session the
// trace's metadata, so Warps and TotalInsts need no trace.
func (s *Session) newMemo(st *store.Store) *prep.Memo {
	return prep.New(prep.Source{
		Kernel:  s.name,
		Blocks:  s.blocks,
		Seed:    s.seed,
		Line:    s.line,
		Workers: s.workers,
		Trace:   s.kernelTrace,
		Store:   st,
		OnDisk:  func(e *store.Entry) { s.noteMeta(e.Warps, e.TotalInsts) },
	})
}

// Kernel returns the session's kernel name.
func (s *Session) Kernel() string { return s.name }

// Blocks returns the session's grid size (the traced one, or the one the
// kernel will be traced with when tracing is still deferred).
func (s *Session) Blocks() int { return s.blocks }

// TotalInsts returns the number of traced warp-instructions. On a
// store-warm session the figure comes from the stored entry; a session
// that has neither traced nor hit the store yet traces now.
func (s *Session) TotalInsts() int64 {
	s.lazy.mu.Lock()
	if s.lazy.metaKnown {
		n := s.lazy.totalInsts
		s.lazy.mu.Unlock()
		return n
	}
	s.lazy.mu.Unlock()
	tr, err := s.kernelTrace(s.obs)
	if err != nil {
		return 0
	}
	return tr.TotalInsts()
}

// Warps returns the total number of warps in the trace. Like TotalInsts
// it is answerable from store metadata without the trace.
func (s *Session) Warps() int {
	s.lazy.mu.Lock()
	if s.lazy.metaKnown {
		n := s.lazy.warps
		s.lazy.mu.Unlock()
		return n
	}
	s.lazy.mu.Unlock()
	tr, err := s.kernelTrace(s.obs)
	if err != nil {
		return 0
	}
	return len(tr.Warps)
}

// noteMeta records trace metadata learned from a store hit, so the
// session can report Warps and TotalInsts without the trace.
func (s *Session) noteMeta(warps int, totalInsts int64) {
	s.lazy.mu.Lock()
	if !s.lazy.metaKnown {
		s.lazy.metaKnown = true
		s.lazy.warps = warps
		s.lazy.totalInsts = totalInsts
	}
	s.lazy.mu.Unlock()
}

// Estimate is the model's prediction for a kernel under one configuration.
type Estimate struct {
	CPI float64 // predicted cycles per warp-instruction (per core)
	IPC float64

	MultithreadingCPI float64 // Eq. 7 component
	ContentionCPI     float64 // Eq. 17 component
	MSHRDelayCycles   float64 // total modeled MSHR queueing cycles
	DRAMDelayCycles   float64 // total modeled DRAM queueing cycles

	RepWarp   int      // index of the representative warp
	Stack     CPIStack // Table III CPI stack
	Intervals int      // intervals in the representative warp's profile
	WarpInsts int      // instructions of the representative warp
}

// Estimate runs full GPUMech (clustering selection, MT_MSHR_BAND level).
func (s *Session) Estimate(cfg Config, pol Policy) (*Estimate, error) {
	return s.EstimateWith(cfg, pol, MTMSHRBand, Clustering)
}

// EstimateWith runs GPUMech at a chosen model level and representative-
// warp selection method. The structural prep comes from the session's
// prep memo (see Session); the call itself runs the multi-warp,
// contention and CPI-stack stages on the method's representative.
func (s *Session) EstimateWith(cfg Config, pol Policy, lvl Level, m Method) (*Estimate, error) {
	sp := s.obs.StartSpan("estimate")
	defer sp.End()
	sp.SetStr("kernel", s.name)
	sp.SetStr("policy", pol.String())
	sp.SetStr("method", m.String())
	o := s.obs.WithSpan(sp)
	ent, err := s.memo.Entry(cfg, sp, o)
	if err != nil {
		return nil, err
	}
	rep, err := ent.RepFor(m)
	if err != nil {
		return nil, err
	}
	est, err := model.RunWithRepresentative(model.Inputs{
		Cfg:     cfg,
		Profile: ent.Profile,
		Policy:  pol,
		Method:  m,
		Level:   lvl,
		Workers: s.workers,
		Obs:     o,
	}, ent.Table, ent.WarpProfiles, rep)
	if err != nil {
		return nil, err
	}
	return &Estimate{
		CPI:               est.CPI,
		IPC:               est.IPCPerCore(),
		MultithreadingCPI: est.CPIMultithreading,
		ContentionCPI:     est.CPIContention,
		MSHRDelayCycles:   est.Contention.MSHRDelay,
		DRAMDelayCycles:   est.Contention.BWDelay,
		RepWarp:           est.RepWarp,
		Stack:             est.Stack,
		Intervals:         len(est.RepProfile.Intervals),
		WarpInsts:         est.RepProfile.Insts,
	}, nil
}

// BaselineModel identifies one of the paper's comparison models.
type BaselineModel int

const (
	// NaiveInterval is Eq. 1's optimistic-overlap prediction.
	NaiveInterval BaselineModel = iota
	// MarkovChain is Chen & Aamodt's first-order model (reference [9]).
	MarkovChain
)

func (b BaselineModel) String() string {
	if b == NaiveInterval {
		return "Naive_Interval"
	}
	return "Markov_Chain"
}

// EstimateBaseline predicts CPI with one of the comparison models. Both
// use the same representative warp as GPUMech (selected by clustering),
// read from the same prep memo.
func (s *Session) EstimateBaseline(cfg Config, b BaselineModel) (float64, error) {
	sp := s.obs.StartSpan("estimate-baseline")
	defer sp.End()
	sp.SetStr("kernel", s.name)
	sp.SetStr("model", b.String())
	ent, err := s.memo.Entry(cfg, sp, s.obs.WithSpan(sp))
	if err != nil {
		return 0, err
	}
	rep := ent.WarpProfiles[ent.Rep]
	switch b {
	case NaiveInterval:
		return baseline.NaiveInterval(rep, cfg.WarpsPerCore)
	case MarkovChain:
		return baseline.MarkovChain(rep, cfg.WarpsPerCore)
	}
	return 0, fmt.Errorf("gpumech: unknown baseline model %d", b)
}

// OracleResult is the outcome of the detailed timing simulation.
type OracleResult struct {
	CPI    float64
	IPC    float64
	Cycles int64 // completion cycle of the slowest core
	Insts  int64 // total issued warp-instructions

	// StallBreakdown is the measured share of core-cycles per stall
	// reason ("issue", "compute-dep", "memory-dep", "mshr", "dram-queue",
	// "barrier", "drain") — the oracle-side counterpart of the model's
	// CPI stack.
	StallBreakdown map[string]float64
}

// Oracle runs the detailed cycle-level timing simulator on the session's
// trace — the validation reference for the model (the paper's Macsim).
func (s *Session) Oracle(cfg Config, pol Policy) (*OracleResult, error) {
	sp := s.obs.StartSpan("oracle")
	sp.SetStr("kernel", s.name)
	sp.SetStr("policy", pol.String())
	tr, err := s.kernelTrace(s.obs)
	if err != nil {
		sp.End()
		return nil, err
	}
	start := time.Now()
	r, err := timing.Simulate(tr, cfg, pol)
	if err != nil {
		sp.End()
		return nil, err
	}
	s.obs.ObserveSince("stage.oracle.seconds", start)
	sp.SetInt("cycles", r.Cycles)
	sp.SetInt("instructions", r.Insts)
	sp.End()
	if s.obs != nil && s.obs.Metrics != nil {
		s.obs.Counter("oracle.runs").Inc()
		s.obs.Histogram("oracle.cpi").Observe(r.CPI)
	}
	return &OracleResult{CPI: r.CPI, IPC: r.IPC, Cycles: r.Cycles, Insts: r.Insts,
		StallBreakdown: r.StallBreakdown()}, nil
}

// RelativeError returns |predicted - oracle| / oracle, the paper's
// validation metric (Section VI-A).
func RelativeError(predicted, oracle float64) float64 {
	if oracle == 0 {
		return 0
	}
	e := (predicted - oracle) / oracle
	if e < 0 {
		e = -e
	}
	return e
}
