package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gpumech"
	"gpumech/internal/cache"
	"gpumech/internal/check"
	"gpumech/internal/config"
	"gpumech/internal/core/contention"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/core/interval"
	"gpumech/internal/core/model"
	"gpumech/internal/core/multiwarp"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/timing"
	"gpumech/internal/trace"
)

// spanRec is one recorded span. Op is the index of the timed op the
// span belongs to, or -1 for set-up and reference work.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
	Work   int64  `json:"work,omitempty"` // warp-instructions handled
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced phases run the very same code.
type tracer struct {
	t0    time.Time
	seq   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} } //det:ok the benchmark measures wall time; no model state depends on it

// spanH is an open span.
type spanH struct {
	t      *tracer
	rec    spanRec
	alloc0 uint64
	allocs bool
}

// begin opens a span under parent (0: none). With allocs set it also
// records the heap bytes allocated while it is open, which is only
// meaningful while no other caller allocates concurrently.
func (t *tracer) begin(name string, parent int64, op int, allocs bool) *spanH {
	if t == nil {
		return nil
	}
	h := &spanH{t: t, allocs: allocs, rec: spanRec{
		ID: t.seq.Add(1), Parent: parent, Op: op, Name: name}}
	if allocs {
		h.alloc0 = allocBytes()
	}
	h.rec.Start = int64(time.Since(t.t0)) //det:ok the benchmark measures wall time; no model state depends on it
	return h
}

func (h *spanH) id() int64 {
	if h == nil {
		return 0
	}
	return h.rec.ID
}

// end closes the span, recording work units handled, and returns its
// duration.
func (h *spanH) end(work int64) time.Duration {
	if h == nil {
		return 0
	}
	h.rec.End = int64(time.Since(h.t.t0)) //det:ok the benchmark measures wall time; no model state depends on it
	if h.allocs {
		h.rec.Alloc = allocBytes() - h.alloc0
	}
	h.rec.Work = work
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.rec)
	h.t.mu.Unlock()
	return h.rec.dur()
}

func (t *tracer) records() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.records())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// The functions below make, from outside, the public calls a storeless
// Session makes internally for one estimate or oracle run, one span per
// layer. Their outputs must equal the Session's byte for byte; the
// traced run checks that, and the untraced runs use them as the
// reference the ops are compared with.

// gridOf resolves a point's grid to the one NewSession would use.
func gridOf(p point) (*kernels.Info, int, error) {
	info, err := kernels.Get(p.Kernel)
	if err != nil {
		return nil, 0, err
	}
	if p.Blocks > 0 {
		return info, p.Blocks, nil
	}
	return info, kernels.DefaultBlocks(info.WarpsPerBlock), nil
}

// composeTrace is kernels.Info.Trace split into its layers: the kernel
// build and emulation (emu), with the emulator's static pre-flight
// (check) as a child span.
func composeTrace(tc *tracer, parent int64, op int, p point) (*trace.Kernel, error) {
	info, blocks, err := gridOf(p)
	if err != nil {
		return nil, err
	}
	h := tc.begin("emu", parent, op, true)
	l, err := info.Build(kernels.Scale{Blocks: blocks, Seed: p.TraceSeed})
	if err != nil {
		h.end(0)
		return nil, err
	}
	c := tc.begin("check", h.id(), op, false)
	fs := check.Verify(l.Prog, check.Options{Launch: &check.LaunchInfo{
		Blocks:          l.Blocks,
		ThreadsPerBlock: l.ThreadsPerBlock,
		WarpSize:        32,
		SharedBytes:     l.SharedBytes,
	}})
	c.end(0)
	if err := fs.Err(); err != nil {
		h.end(0)
		return nil, fmt.Errorf("pre-flight rejected %s: %w", p.Kernel, err)
	}
	tr, err := emu.Run(emu.Launch{
		Prog:            l.Prog,
		Blocks:          l.Blocks,
		ThreadsPerBlock: l.ThreadsPerBlock,
		SharedBytes:     l.SharedBytes,
		Mem:             l.Mem,
		LineBytes:       128,
		SkipVerify:      true, // verified above, in its own span
	})
	if err != nil {
		h.end(0)
		return nil, err
	}
	h.end(tr.TotalInsts())
	return tr, nil
}

func composeCache(tc *tracer, parent int64, op int, tr *trace.Kernel, cfg config.Config) (*cache.Profile, error) {
	h := tc.begin("cache", parent, op, false)
	prof, err := cache.Simulate(tr, cfg.ProfileConfig())
	h.end(0)
	return prof, err
}

// structural is a kernel's per-configuration prep: what the profile
// store persists and what every estimate rebuilds without one.
type structural struct {
	table    *interval.PCTable
	profiles []*interval.Profile
	rep      int
	prof     *cache.Profile
}

func composeStructural(tc *tracer, parent int64, op int, tr *trace.Kernel, prof *cache.Profile, cfg config.Config) (*structural, error) {
	h := tc.begin("interval", parent, op, true)
	t := model.BuildPCTable(tr.Prog, cfg, prof)
	profiles, err := model.BuildWarpProfilesWorkers(tr, cfg, t, 0)
	h.end(0)
	if err != nil {
		return nil, err
	}
	h = tc.begin("core_cluster", parent, op, false)
	rep, err := model.SelectRepresentative(profiles, gpumech.Clustering, nil)
	h.end(0)
	if err != nil {
		return nil, err
	}
	return &structural{table: t, profiles: profiles, rep: rep, prof: prof}, nil
}

// composeModel runs the per-request stages of full GPUMech (multi-warp,
// contention, CPI stack) on prepared state and assembles the public
// Estimate the way Session.EstimateWith does.
func composeModel(tc *tracer, parent int64, op int, s *structural, cfg config.Config, pol gpumech.Policy) (*gpumech.Estimate, error) {
	p := s.profiles[s.rep]
	h := tc.begin("multiwarp", parent, op, false)
	mw, err := multiwarp.ModelWithOptions(p, cfg.WarpsPerCore, pol, multiwarp.Options{})
	h.end(0)
	if err != nil {
		return nil, err
	}
	h = tc.begin("contention", parent, op, false)
	ct, err := contention.Model(p, contention.Inputs{
		Warps:             cfg.WarpsPerCore,
		Cores:             cfg.Cores,
		MSHRs:             cfg.MSHREntries,
		AvgMissLatency:    s.prof.AvgMissLatency(),
		DRAMServiceCycles: cfg.DRAMServiceCycles(),
		IssueRate:         cfg.IssueRate(),
		SFUServiceCycles:  cfg.SFUServiceCycles(),
		BaseCPI:           mw.CPI,
	})
	h.end(0)
	if err != nil {
		return nil, err
	}
	h = tc.begin("cpistack", parent, op, false)
	stack, err := cpistack.Build(p, s.table, mw.CPI, ct.MSHRDelay, ct.BWDelay, ct.SFUDelay)
	h.end(0)
	if err != nil {
		return nil, err
	}
	est := &gpumech.Estimate{
		CPI:               mw.CPI + ct.CPI,
		MultithreadingCPI: mw.CPI,
		ContentionCPI:     ct.CPI,
		MSHRDelayCycles:   ct.MSHRDelay,
		DRAMDelayCycles:   ct.BWDelay,
		RepWarp:           s.rep,
		Stack:             stack,
		Intervals:         len(p.Intervals),
		WarpInsts:         p.Insts,
	}
	if est.CPI != 0 {
		est.IPC = 1 / est.CPI
	}
	return est, nil
}

func composeOracle(tc *tracer, parent int64, op int, tr *trace.Kernel, cfg config.Config, pol gpumech.Policy) (*gpumech.OracleResult, error) {
	h := tc.begin("timing", parent, op, true)
	r, err := timing.Simulate(tr, cfg, pol)
	if err != nil {
		h.end(0)
		return nil, err
	}
	h.end(r.Insts)
	return &gpumech.OracleResult{CPI: r.CPI, IPC: r.IPC, Cycles: r.Cycles, Insts: r.Insts,
		StallBreakdown: r.StallBreakdown()}, nil
}
