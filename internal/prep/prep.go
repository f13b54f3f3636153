// Package prep is the structural-prep memo behind every estimate: the
// cache profile, per-PC latency table, and the Clustering, Max and Min
// representative warps with their interval profiles (a store.Entry),
// built at most once per store.Key for one traced kernel. A Session holds
// one per session, the experiments Evaluator one per traced kernel, and
// the accuracy harness one per swept kernel, so all three pay for
// structural prep once per input, the paper's profile-once, explore-many
// mode (§III-C, §VI-D).
package prep

import (
	"sync"
	"time"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/model"
	"gpumech/internal/obs"
	"gpumech/internal/store"
	"gpumech/internal/trace"
)

// Source is the kernel a Memo prepares and where its prep may come from.
type Source struct {
	// Kernel, Blocks, Seed and Line are the trace identity; with a
	// configuration they form the entry's store.Key.
	Kernel string
	Blocks int
	Seed   int64
	Line   int

	// Workers bounds a build's per-warp fan-out (model.Inputs.Workers).
	Workers int

	// Trace returns the kernel trace, building it on first need; o is
	// the observer of the call that needs it.
	Trace func(o *obs.Observer) (*trace.Kernel, error)

	// Store, when non-nil, is the disk tier between the memo and a
	// build: a key is looked up there first, and a build is persisted.
	Store *store.Store

	// OnDisk, when non-nil, sees each entry the store supplies.
	OnDisk func(*store.Entry)
}

// ForTrace returns a storeless memo over an already-built trace, keyed by
// the trace's own name, grid and line size and the input seed.
func ForTrace(tr *trace.Kernel, seed int64, workers int) *Memo {
	return New(Source{
		Kernel:  tr.Name,
		Blocks:  tr.Blocks,
		Seed:    seed,
		Line:    tr.LineBytes,
		Workers: workers,
		Trace:   func(*obs.Observer) (*trace.Kernel, error) { return tr, nil },
	})
}

// Memo is the structural-prep memo of one kernel. entries holds one slim
// store.Entry per store key, resolved from memory, then the profile
// store, then a build. profiles holds one cache profile per
// cache.ProfileKey, so keys that differ only in compute latencies or
// issue width share one cache simulation. Each cell resolves once
// (sync.Once) and is shared by every waiter, so a Memo is safe for
// concurrent use and concurrent first requests share one resolution.
type Memo struct {
	src Source

	mu       sync.Mutex
	entries  map[store.Key]*prepOnce
	profiles map[cache.ProfileKey]*profileOnce
}

// New returns an empty memo over src.
func New(src Source) *Memo {
	return &Memo{
		src:      src,
		entries:  make(map[store.Key]*prepOnce),
		profiles: make(map[cache.ProfileKey]*profileOnce),
	}
}

// memoCell returns m's cell for k, creating it under the memo lock.
func memoCell[K comparable, C any](memo *Memo, m map[K]*C, k K) *C {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	c := m[k]
	if c == nil {
		c = new(C)
		m[k] = c
	}
	return c
}

type prepOnce struct {
	once sync.Once
	e    *store.Entry
	err  error
}

type profileOnce struct {
	once sync.Once
	p    *cache.Profile
	err  error
}

// Prep tiers: where an entry came from, recorded as the "prep" attribute
// of the caller's span.
const (
	tierMemory = "memory" // the memo, resolved by an earlier call
	tierDisk   = "disk"   // the profile store
	tierBuild  = "build"  // traced, simulated and profiled by this call
)

// Entry resolves the structural prep of cfg: the memo first, then the
// profile store, then a build that is persisted for the next process.
// Each store key resolves at most once per memo; concurrent first
// requests share one resolution. A memo answer serves the cache profile
// from memory, so it counts toward cache.profile.memo_hits. The tier
// that answered is recorded on sp.
func (m *Memo) Entry(cfg config.Config, sp *obs.Span, o *obs.Observer) (*store.Entry, error) {
	// Validate eagerly: a memo hit must not mask an invalid configuration
	// whose fields happen to share a key with a previously valid one (and
	// canonicalization could make an invalid residency simulate cleanly).
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key := store.KeyFor(m.src.Kernel, m.src.Blocks, m.src.Seed, m.src.Line, cfg)
	po := memoCell(m, m.entries, key)
	tier := tierMemory
	po.once.Do(func() {
		if m.src.Store != nil {
			if e, ok := m.src.Store.Get(key); ok {
				tier = tierDisk
				po.e = e
				if m.src.OnDisk != nil {
					m.src.OnDisk(e)
				}
				m.seedProfile(cfg, e.Profile)
				return
			}
		}
		tier = tierBuild
		po.e, po.err = m.build(key, cfg, o)
	})
	sp.SetStr("prep", tier)
	if tier == tierMemory && o != nil && o.Metrics != nil {
		o.Counter("cache.profile.memo_hits").Inc()
	}
	return po.e, po.err
}

// build traces, simulates and profiles one configuration, keeping only
// its representatives' interval profiles (model.StructuralReps). With a
// store configured the entry is persisted; a write failure is recorded
// on the store's counters but does not fail the caller, since the prep
// in hand is valid either way.
func (m *Memo) build(key store.Key, cfg config.Config, o *obs.Observer) (*store.Entry, error) {
	tr, err := m.src.Trace(o)
	if err != nil {
		return nil, err
	}
	prof, err := m.Profile(cfg, o)
	if err != nil {
		return nil, err
	}
	t, profiles, reps, err := model.StructuralReps(model.Inputs{
		Kernel:  tr,
		Cfg:     cfg,
		Profile: prof,
		Workers: m.src.Workers,
		Obs:     o,
	})
	if err != nil {
		return nil, err
	}
	e := &store.Entry{
		Key:          key,
		Warps:        len(tr.Warps),
		TotalInsts:   tr.TotalInsts(),
		Profile:      prof,
		Table:        t,
		WarpProfiles: profiles,
		Rep:          reps[cluster.Clustering],
		MaxRep:       reps[cluster.Max],
		MinRep:       reps[cluster.Min],
	}
	if m.src.Store != nil {
		m.src.Store.Put(key, e) // best-effort durability; errors are counted
	}
	return e, nil
}

// Profile memoizes cache.Simulate per cache-geometry key
// (config.Config.ProfileKey): the Config fields the profile depends on —
// geometry and latencies — with the cache residency pinned at the
// canonical profiling value (config.Config.ProfileConfig). Sweep points
// that differ only in warps, MSHRs or DRAM bandwidth share one prep key
// and never get here twice; prep keys that differ only in compute
// latencies or issue width share one simulation here.
func (m *Memo) Profile(cfg config.Config, o *obs.Observer) (*cache.Profile, error) {
	ent := memoCell(m, m.profiles, cfg.ProfileKey())
	simulated := false
	ent.once.Do(func() {
		simulated = true
		tr, err := m.src.Trace(o)
		if err != nil {
			ent.err = err
			return
		}
		sp := o.StartSpan("cache-sim")
		start := time.Now()
		ent.p, ent.err = cache.Simulate(tr, cfg.ProfileConfig())
		o.ObserveSince("stage.cachesim.seconds", start)
		sp.End()
		if ent.err == nil && o != nil && o.Metrics != nil {
			t := ent.p.Totals()
			o.Counter("cachesim.load_reqs").Add(t.LoadReqs)
			o.Counter("cachesim.store_reqs").Add(t.StoreReqs)
			o.Counter("cachesim.l1_hit_reqs").Add(t.L1HitReqs)
			o.Counter("cachesim.l2_hit_reqs").Add(t.L2HitReqs)
			o.Counter("cachesim.l2_miss_reqs").Add(t.L2MissReqs)
		}
	})
	if o != nil && o.Metrics != nil {
		if simulated {
			o.Counter("cache.profile.memo_misses").Inc()
		} else {
			o.Counter("cache.profile.memo_hits").Inc()
		}
	}
	return ent.p, ent.err
}

// seedProfile installs a store-loaded cache profile into the profile
// memo, so a later build of a prep key sharing the configuration's
// ProfileKey (another latency or issue-width variant) skips the cache
// simulator.
func (m *Memo) seedProfile(cfg config.Config, p *cache.Profile) {
	ent := memoCell(m, m.profiles, cfg.ProfileKey())
	ent.once.Do(func() { ent.p = p })
}
