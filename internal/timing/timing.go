// Package timing is the detailed cycle-level GPU simulator used as the
// validation oracle — the repository's stand-in for Macsim in the paper's
// evaluation (Section VI-A). It consumes the same per-warp traces as
// GPUMech and simulates, cycle by cycle:
//
//   - in-order issue of one warp-instruction per core per cycle, chosen by
//     a round-robin or greedy-then-oldest scheduler;
//   - register scoreboarding over the unified register namespace
//     (RAW and WAW hazards), with per-class instruction latencies;
//   - block-granular residency: WarpsPerCore warps stay resident, whole
//     blocks are admitted as previous blocks drain, and barriers
//     synchronize the warps of a block;
//   - per-core L1 and shared L2 tag arrays, per-core MSHRs with same-line
//     merging (loads needing more free MSHRs than available cannot issue);
//   - a shared DRAM channel with finite bandwidth: L2-missing loads and
//     all write-through stores occupy the channel for the line service
//     time, so bursts queue behind each other.
//
// Because it tracks every request at cycle granularity, the oracle
// captures effects GPUMech only approximates (exact interleavings, MSHR
// merging, load/store interference), which is what makes the model's
// error measurements meaningful.
package timing

import (
	"fmt"
	"math"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// Policy is the warp scheduling policy of the simulated cores,
// re-exported from config.
type Policy = config.Policy

// Scheduling policies (see config.Policy).
const (
	RR  = config.RR
	GTO = config.GTO
)

// StallReason classifies why a core could not issue in a cycle, for the
// measured stall breakdown (the oracle-side counterpart of the model's
// CPI stack).
type StallReason int

const (
	// StallCompute: every candidate warp waits on a compute result.
	StallCompute StallReason = iota
	// StallMemory: some candidate warp waits on an outstanding load.
	StallMemory
	// StallMSHR: a warp was ready but could not get MSHR entries.
	StallMSHR
	// StallDRAMQueue: a warp was ready but the DRAM queue was full.
	StallDRAMQueue
	// StallBarrier: all live warps wait at a barrier.
	StallBarrier
	// StallDrain: the core had no resident work (block drain/admission).
	StallDrain
	numStallReasons
)

func (r StallReason) String() string {
	switch r {
	case StallCompute:
		return "compute-dep"
	case StallMemory:
		return "memory-dep"
	case StallMSHR:
		return "mshr"
	case StallDRAMQueue:
		return "dram-queue"
	case StallBarrier:
		return "barrier"
	case StallDrain:
		return "drain"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// StallReasons lists the reasons in display order.
func StallReasons() []StallReason {
	out := make([]StallReason, numStallReasons)
	for i := range out {
		out[i] = StallReason(i)
	}
	return out
}

// Result summarizes one detailed simulation.
type Result struct {
	Cycles int64 // completion cycle of the slowest core (wall clock)
	Insts  int64 // total issued warp-instructions

	// CPI is the wall-clock cycles per warp-instruction per core:
	// Cycles * Cores / Insts. Cores share the L2 and the DRAM channel, so
	// the machine-level wall clock — not the mean of per-core finish
	// times — is what a per-core performance model predicts.
	CPI float64
	IPC float64 // 1/CPI

	// MeanCoreCPI averages each core's own finish time over its own
	// instructions; it converges to CPI for balanced long-running
	// kernels.
	MeanCoreCPI   float64
	PerCoreCycles []int64
	PerCoreInsts  []int64

	// Diagnostics.
	MSHRStallCycles int64 // core-cycles in which the chosen warp was blocked only by MSHRs
	NoIssueCycles   int64 // core-cycles with no issuable warp
	DRAMRequests    int64 // requests that occupied the shared channel

	// Stalls attributes every core-cycle without an issue to a reason —
	// the measured stall breakdown. Together with Insts (one cycle each),
	// the entries sum to the total core-cycles of the run.
	Stalls [6]int64
}

// StallBreakdown returns the per-reason share of all core cycles,
// including the issue cycles under the key "issue".
func (r *Result) StallBreakdown() map[string]float64 {
	total := float64(r.Insts)
	for _, v := range r.Stalls {
		total += float64(v)
	}
	out := make(map[string]float64, int(numStallReasons)+1)
	if total == 0 {
		return out
	}
	out["issue"] = float64(r.Insts) / total
	for _, reason := range StallReasons() {
		out[reason.String()] = float64(r.Stalls[reason]) / total
	}
	return out
}

const maxInt64 = int64(math.MaxInt64)

// wakeIssuable is the wake of a warp whose current record passed an issue
// check that it will pass at every later cycle until the warp issues it.
// It lies before every cycle, so the warp stays eligible; GTO's scan skips
// the check, which would write nothing.
const wakeIssuable = int64(-1)

// Simulate runs the detailed timing simulation of the kernel trace under
// the configuration and scheduling policy.
func Simulate(k *trace.Kernel, cfg config.Config, pol Policy) (*Result, error) {
	if k == nil {
		return nil, fmt.Errorf("timing: nil kernel trace")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k.WarpsPerBlock <= 0 || len(k.Warps) == 0 {
		return nil, fmt.Errorf("timing: kernel %q has no warps to simulate (%d warps, %d per block)",
			k.Name, len(k.Warps), k.WarpsPerBlock)
	}
	if k.LineBytes != cfg.L1LineBytes {
		return nil, fmt.Errorf("timing: trace coalesced at %d-byte lines but config uses %d", k.LineBytes, cfg.L1LineBytes)
	}
	if cfg.WarpsPerCore%k.WarpsPerBlock != 0 {
		return nil, fmt.Errorf("timing: WarpsPerCore (%d) not a multiple of warps per block (%d)", cfg.WarpsPerCore, k.WarpsPerBlock)
	}
	sim, err := newSim(k, cfg, pol)
	if err != nil {
		return nil, err
	}
	return sim.run()
}

type sim struct {
	cfg   config.Config
	pol   Policy
	cores []*core
	l2    *cache.Array
	// dramFree is the cycle at which the shared DRAM channel next frees.
	dramFree    int64
	dramService float64
	dramSurplus float64 // fractional service cycles carried between requests
	// dramBacklogMax bounds how far dramFree may run ahead of the current
	// cycle: the memory controller's finite request queue. Memory
	// instructions that need the channel cannot issue past it.
	dramBacklogMax int64
	numRegs        int // unified register namespace size
	dramReqs       int64
	sfuService     int64 // SFU occupancy per warp instruction (0 = unlimited)
	now            int64
	err            error // first trace decode failure, checked each cycle
	// freshBlocks gives every admission new block state instead of a
	// drained block's; tests compare the two.
	freshBlocks bool
}

type core struct {
	pending [][]*trace.WarpTrace
	warps   []*warpState // resident, in admission order: oldest first
	// wakes[i] is the earliest cycle warps[i] may issue: maxInt64 while
	// the warp is done, waits at a barrier or has no record left, and
	// wakeIssuable once an issue check found its record issuable for good
	// (see canIssue). The scheduler scans read eligibility from this one
	// dense column, and each warp keeps its index in it (warpState.slot).
	wakes  []int64
	l1     *cache.Array
	mshr   *mshrFile
	rrPos  int
	greedy *warpState
	insts  int64
	cycles int64
	done   bool
	// sleepUntil is the earliest cycle at which any of this core's warps
	// can possibly issue; while now < sleepUntil the scheduler scan is
	// skipped entirely. Safe because cross-core events can only delay,
	// never advance, a warp's readiness (dramFree is monotone, MSHRs and
	// scoreboards are core-local).
	sleepUntil  int64
	sleepReason StallReason // attribution for the skipped cycles
	stalls      [6]int64

	mshrStalls int64
	noIssue    int64

	// sfuFree is the cycle at which the core's special function unit next
	// accepts a warp instruction (SFU contention extension; unused when
	// config.SFUPerCore is 0).
	sfuFree int64

	// memEpoch increments whenever this core's L1 contents or MSHR
	// in-flight set change; warps memoize their next instruction's probe
	// results against it so blocked retries stay O(1).
	memEpoch int64

	// spare holds drained blocks for admitBlock to reuse: their warp
	// slabs, scoreboards and trace cursors.
	spare []*blockState
}

type blockState struct {
	warps   []warpState // one slab per block, in admission order
	alive   int
	barWait int
	// The warps' scoreboards, numRegs entries per warp.
	regReady   []int64
	regFromMem []bool
}

type warpState struct {
	// The fields an issue check reads come first, so it touches one cache
	// line per warp.
	r     *trace.Rec // current, not yet issued, record; nil once exhausted
	op    isa.Op     // r.Op
	atBar bool
	done  bool
	// ready is the cycle r's sources and destination are written, the
	// scoreboard half of the issue check. advance computes it once per
	// record: a warp's registers change only when the warp itself issues.
	ready       int64
	slot        int         // index in core.warps and core.wakes
	mshrBlocked bool        // last issue attempt failed only due to MSHRs
	blockReason StallReason // why the last issue attempt failed

	// Memoized probe results for the instruction at probePos (valid while
	// the core's memEpoch is unchanged).
	probePos   int
	probeEpoch int64
	probeNeed  int
	probeDRAM  bool

	pos int // issued-or-current records, for the probe memo
	// regReady and regFromMem are the scoreboard: when each register's
	// pending write completes, and whether a load makes it (for stall
	// attribution). A block's warps share one allocation of each.
	regReady   []int64
	regFromMem []bool
	block      *blockState
	// cur streams the warp's records, decoding them on the fly.
	cur trace.ColCursor
}

// setWake stamps w's entry of the wake column: at, unless w is done,
// waits at a barrier or has no record left, when it can issue at no
// cycle.
func (co *core) setWake(w *warpState, at int64) {
	if w.done || w.atBar || w.r == nil {
		at = maxInt64
	}
	co.wakes[w.slot] = at
}

func newSim(k *trace.Kernel, cfg config.Config, pol Policy) (*sim, error) {
	l2, err := cache.NewArray(cfg.L2SizeBytes, cfg.L2LineBytes, cfg.L2Assoc)
	if err != nil {
		return nil, err
	}
	s := &sim{cfg: cfg, pol: pol, l2: l2, dramService: cfg.DRAMServiceCycles()}
	s.sfuService = int64(cfg.SFUServiceCycles())
	s.dramBacklogMax = int64(float64(cfg.DRAMQueueDepth) * s.dramService)
	if s.dramBacklogMax < 1 {
		s.dramBacklogMax = 1
	}
	asg := trace.Assign(k.Blocks, cfg.Cores)
	blocksPerCore := cfg.WarpsPerCore / k.WarpsPerBlock
	numRegs := k.Prog.NumRegs + k.Prog.NumPreds

	for c := 0; c < cfg.Cores; c++ {
		l1, err := cache.NewArray(cfg.L1SizeBytes, cfg.L1LineBytes, cfg.L1Assoc)
		if err != nil {
			return nil, err
		}
		// WarpsPerCore comes from the caller unbounded: size the columns
		// by the warps this core can actually hold.
		resident := min(cfg.WarpsPerCore, len(asg.CoreBlocks[c])*k.WarpsPerBlock)
		co := &core{l1: l1, mshr: newMSHRFile(cfg.MSHREntries),
			warps: make([]*warpState, 0, resident),
			wakes: make([]int64, 0, resident)}
		for _, b := range asg.CoreBlocks[c] {
			var ws []*trace.WarpTrace
			ws = append(ws, k.WarpsOfBlock(b)...)
			co.pending = append(co.pending, ws)
		}
		for i := 0; i < blocksPerCore && len(co.pending) > 0; i++ {
			if err := co.admitBlock(numRegs, 0); err != nil {
				return nil, err
			}
		}
		co.done = len(co.warps) == 0 && len(co.pending) == 0
		s.cores = append(s.cores, co)
	}
	s.numRegs = numRegs
	return s, nil
}

// numRegs is stored on sim for block admission during the run.
func (s *sim) run() (*Result, error) {
	res := &Result{
		PerCoreCycles: make([]int64, len(s.cores)),
		PerCoreInsts:  make([]int64, len(s.cores)),
	}
	const safetyCap = int64(2) << 40
	for {
		anyAlive := false
		anyIssued := false
		nextEvent := maxInt64
		// Rotate the polling order each cycle so no core permanently wins
		// shared-resource arbitration (DRAM queue slots).
		n := len(s.cores)
		c := int(s.now % int64(n))
		for i := 0; i < n; i++ {
			co := s.cores[c]
			if c++; c == n {
				c = 0
			}
			if co.done {
				continue
			}
			anyAlive = true
			issued, ev := s.stepCore(co)
			if issued {
				anyIssued = true
			} else if ev < nextEvent {
				nextEvent = ev
			}
		}
		if !anyAlive {
			break
		}
		if anyIssued {
			s.now++
		} else {
			if nextEvent == maxInt64 || nextEvent <= s.now {
				return nil, fmt.Errorf("timing: deadlock at cycle %d", s.now)
			}
			// Fast-forward idle cycles; account them to every live core
			// under the reason recorded when it went to sleep.
			skipped := nextEvent - s.now
			for _, co := range s.cores {
				if !co.done {
					co.noIssue += skipped - 1
					co.stalls[co.sleepReason] += skipped - 1
				}
			}
			s.now = nextEvent
		}
		if s.err != nil {
			return nil, fmt.Errorf("timing: %w", s.err)
		}
		if s.now > safetyCap {
			return nil, fmt.Errorf("timing: exceeded cycle safety cap")
		}
	}

	var sumCycles int64
	for i, co := range s.cores {
		res.PerCoreCycles[i] = co.cycles
		res.PerCoreInsts[i] = co.insts
		res.Insts += co.insts
		sumCycles += co.cycles
		res.MSHRStallCycles += co.mshrStalls
		res.NoIssueCycles += co.noIssue
		for ri := range co.stalls {
			res.Stalls[ri] += co.stalls[ri]
		}
		res.Cycles = max(res.Cycles, co.cycles)
	}
	if res.Insts == 0 {
		return nil, fmt.Errorf("timing: no instructions issued")
	}
	res.MeanCoreCPI = float64(sumCycles) / float64(res.Insts)
	res.CPI = float64(res.Cycles) * float64(len(s.cores)) / float64(res.Insts)
	res.IPC = 1 / res.CPI
	res.DRAMRequests = s.dramReqs
	return res, nil
}

// stepCore attempts to issue one instruction on the core at the current
// cycle. It returns whether an instruction issued and, if not, the
// earliest cycle at which the core might make progress.
func (s *sim) stepCore(co *core) (bool, int64) {
	now := s.now
	if now < co.sleepUntil {
		return false, co.sleepUntil
	}
	if freed := co.mshr.purge(now); freed > 0 {
		co.memEpoch++
	}

	w := s.pick(co, now)
	if w != nil {
		s.issue(co, w, now)
		co.insts++
		co.cycles = now + 1
		return true, 0
	}

	// Blocked: find the earliest wake-up among resident warps and MSHR
	// releases; classify the lost cycle for the measured stall breakdown.
	next := maxInt64
	sawMSHRBlock := false
	live := 0
	var reasonCounts [6]int64
	for i, ws := range co.warps {
		if ws.done {
			continue
		}
		live++
		if ws.atBar {
			reasonCounts[StallBarrier]++
			continue
		}
		if ws.mshrBlocked {
			sawMSHRBlock = true
		}
		reasonCounts[ws.blockReason]++
		if wake := co.wakes[i]; wake > now && wake < next {
			next = wake
		}
	}
	reason := StallDrain
	if live > 0 {
		// Attribute to the structural reasons first (they indicate a
		// saturated resource), otherwise to the majority dependence kind.
		switch {
		case reasonCounts[StallDRAMQueue] > 0:
			reason = StallDRAMQueue
		case reasonCounts[StallMSHR] > 0:
			reason = StallMSHR
		case reasonCounts[StallMemory] >= reasonCounts[StallCompute] && reasonCounts[StallMemory] > 0:
			reason = StallMemory
		case reasonCounts[StallCompute] > 0:
			reason = StallCompute
		default:
			reason = StallBarrier
		}
	}
	co.stalls[reason]++
	co.sleepReason = reason
	if r := co.mshr.nextRelease(); r < next && r > now {
		next = r
	}
	if sawMSHRBlock {
		co.mshrStalls++
	}
	co.noIssue++
	if next > now {
		co.sleepUntil = next
	}
	if next == maxInt64 {
		// Warps may be waiting on nothing local (all at barrier handled
		// at issue). Treat as deadlock candidate upstream.
		return false, maxInt64
	}
	return false, next
}

// pick selects the warp to issue per the policy, or nil if none can.
//
// canIssue records why a warp cannot issue (its wake, blockReason and
// mshrBlocked stamps, and its probe memo), and later cycles read those
// records, so the scans skip only checks that would write nothing: a
// warp whose wake lies ahead, and under GTO a warp whose wake is
// wakeIssuable. They check the rest in scan order. GTO in particular
// checks every eligible warp even after finding an issuable one:
// stopping at the first would leave the rest unstamped and change the
// oracle.
func (s *sim) pick(co *core, now int64) *warpState {
	n := len(co.warps)
	if n == 0 {
		return nil
	}
	switch s.pol {
	case GTO:
		if g := co.greedy; g != nil && !g.done {
			if wake := co.wakes[g.slot]; wake == wakeIssuable || wake <= now && s.canIssue(co, g, now) {
				return g
			}
		}
		// co.warps runs oldest first, so the first issuable warp is the
		// oldest one; the rest are still checked for their stamps.
		var oldest *warpState
		for i, wake := range co.wakes {
			if wake > now {
				continue
			}
			if (wake == wakeIssuable || s.canIssue(co, co.warps[i], now)) && oldest == nil {
				oldest = co.warps[i]
			}
		}
		if oldest != nil {
			co.greedy = oldest
		}
		return oldest
	default: // RR
		j := (co.rrPos + 1) % n
		for i := 0; i < n; i++ {
			if co.wakes[j] <= now && s.canIssue(co, co.warps[j], now) {
				co.rrPos = j
				return co.warps[j]
			}
			if j++; j == n {
				j = 0
			}
		}
		return nil
	}
}

// canIssue checks scoreboard and structural hazards for the next
// instruction of an eligible warp.
//
// A passing record with no global lines that needs no SFU slot gets the
// wake wakeIssuable: its ready cycle has passed for good, and nothing
// else this check reads can block it, so until the warp issues it a check
// would only clear mshrBlocked again, which is already false. Issuing or
// finishing the warp stamps a new wake.
func (s *sim) canIssue(co *core, w *warpState, now int64) bool {
	w.mshrBlocked = false
	if w.ready > now {
		co.wakes[w.slot] = w.ready
		w.blockReason = StallCompute
		if w.waitsOnLoad(now) {
			w.blockReason = StallMemory
		}
		return false
	}
	r := w.r
	// Structural hazard: the special function unit accepts one warp
	// instruction per service interval (extension; see config.SFUPerCore).
	sfu := s.sfuService > 0 && w.op.Class() == isa.ClassSFU
	if sfu && co.sfuFree > now {
		co.wakes[w.slot] = co.sfuFree
		w.blockReason = StallCompute
		return false
	}
	// Structural hazards for global memory instructions.
	switch w.op {
	case isa.OpLdG:
		if len(r.Lines) == 0 {
			break
		}
		var need int
		var wantsDRAM bool
		if w.probePos == w.pos && w.probeEpoch == co.memEpoch {
			need, wantsDRAM = w.probeNeed, w.probeDRAM
		} else {
			for _, line := range r.Lines {
				if co.l1.Probe(line) {
					continue
				}
				if _, merged := co.mshr.pending(line); merged {
					continue
				}
				need++
				if !s.l2.Probe(line) {
					wantsDRAM = true
				}
			}
			w.probePos, w.probeEpoch = w.pos, co.memEpoch
			w.probeNeed, w.probeDRAM = need, wantsDRAM
		}
		// A load must secure an MSHR entry for every L1-missing,
		// non-merged request. An instruction more divergent than the
		// whole MSHR file issues once every entry is free (wave-serialized
		// in real hardware; briefly oversubscribed here).
		if need >= co.mshr.entries {
			if co.mshr.free() < co.mshr.entries {
				w.mshrBlocked = true
				w.blockReason = StallMSHR
				if rel := co.mshr.kthRelease(co.mshr.entries - co.mshr.free()); rel > now {
					co.wakes[w.slot] = rel
				}
				return false
			}
		} else if need > co.mshr.free() {
			w.mshrBlocked = true
			w.blockReason = StallMSHR
			// Wake only when enough entries will have been freed.
			if rel := co.mshr.kthRelease(need - co.mshr.free()); rel > now {
				co.wakes[w.slot] = rel
			}
			return false
		}
		if wantsDRAM && s.dramBacklogged(co, w, now) {
			w.blockReason = StallDRAMQueue
			return false
		}
	case isa.OpStG:
		// Write-through stores always consume the channel.
		if len(r.Lines) > 0 && s.dramBacklogged(co, w, now) {
			w.blockReason = StallDRAMQueue
			return false
		}
	}
	if len(r.Lines) == 0 && !sfu {
		co.wakes[w.slot] = wakeIssuable
	}
	return true
}

// waitsOnLoad reports whether the scoreboard wait of w's current record
// is on a load: a source still pending at now whose write comes from a
// load, or a WAW destination, later than every source, written by one.
func (w *warpState) waitsOnLoad(now int64) bool {
	r := w.r
	var latest int64
	fromMem := false
	for _, src := range r.SrcRegs() {
		if src == isa.RegNone {
			continue
		}
		t := w.regReady[src]
		if t > now && w.regFromMem[src] {
			fromMem = true
		}
		latest = max(latest, t)
	}
	if r.Dst != isa.RegNone && w.regReady[r.Dst] > latest && w.regFromMem[r.Dst] {
		fromMem = true
	}
	return fromMem
}

// dramBacklogged reports whether the shared memory controller queue is
// full; if so it sets the warp's wake time to the drain point.
func (s *sim) dramBacklogged(co *core, w *warpState, now int64) bool {
	if s.dramFree-now <= s.dramBacklogMax {
		return false
	}
	if wake := s.dramFree - s.dramBacklogMax; wake > now {
		co.wakes[w.slot] = wake
	}
	return true
}

// issue executes the warp's current instruction at cycle now. The cursor
// advances only after the instruction is fully processed: the cached
// record (and its Lines window) is invalidated by the advance.
func (s *sim) issue(co *core, w *warpState, now int64) {
	r := w.r

	switch w.op {
	case isa.OpBar:
		w.atBar = true
		co.wakes[w.slot] = maxInt64
		b := w.block
		b.barWait++
		if b.barWait >= b.alive {
			co.release(b, now)
		}
	case isa.OpExit:
		s.finishWarp(co, w, now)
	case isa.OpLdG:
		done := now + int64(s.cfg.L1Latency)
		if len(r.Lines) > 0 {
			co.memEpoch++
		}
		for _, line := range r.Lines {
			c := s.loadLine(co, line, now)
			if c > done {
				done = c
			}
		}
		if r.Dst != isa.RegNone {
			w.regReady[r.Dst] = done
			w.regFromMem[r.Dst] = true
		}
		co.wakes[w.slot] = now + 1
	case isa.OpStG:
		// Write-through, no-allocate, fire-and-forget: refresh tags and
		// occupy the DRAM channel for each request.
		for _, line := range r.Lines {
			co.l1.Touch(line)
			s.l2.Touch(line)
			s.dramOccupy(now)
		}
		co.wakes[w.slot] = now + 1
	default:
		if s.sfuService > 0 && w.op.Class() == isa.ClassSFU {
			co.sfuFree = now + s.sfuService
		}
		if r.Dst != isa.RegNone {
			w.regReady[r.Dst] = now + int64(s.latencyOf(w.op))
			w.regFromMem[r.Dst] = false
		}
		co.wakes[w.slot] = now + 1
	}

	if err := w.advance(); err != nil && s.err == nil {
		s.err = err
	}
	if w.r == nil && !w.done {
		s.finishWarp(co, w, now)
	}
}

// advance moves the warp to its next record, caching it in w.r (nil at
// end of trace) with its op and scoreboard-ready cycle. A decode error is
// returned and the warp treated as exhausted.
func (w *warpState) advance() error {
	if !w.cur.Next() {
		w.r = nil
		return w.cur.Err()
	}
	r := w.cur.Rec()
	w.r, w.op = r, r.Op
	w.pos++
	if w.done {
		// The cursor still moves past an exit, so a decode error there
		// surfaces, but a finished warp needs no ready cycle.
		return nil
	}
	var ready int64
	for _, src := range r.SrcRegs() {
		if src != isa.RegNone {
			ready = max(ready, w.regReady[src])
		}
	}
	if r.Dst != isa.RegNone {
		ready = max(ready, w.regReady[r.Dst]) // WAW
	}
	w.ready = ready
	return nil
}

// loadLine resolves one load request and returns its completion cycle.
func (s *sim) loadLine(co *core, line uint64, now int64) int64 {
	if co.l1.Access(line) {
		return now + int64(s.cfg.L1Latency)
	}
	if c, ok := co.mshr.pending(line); ok {
		return c // merged into an in-flight miss
	}
	var completion int64
	if s.l2.Access(line) {
		completion = now + int64(s.cfg.L2Latency)
	} else {
		// The channel is arbitrated in issue-time order; the L2 lookup and
		// DRAM access latencies are added to the completion afterwards, so
		// a future "arrival" never reserves (and wastes) the interleaving
		// gap on the channel.
		start := s.dramOccupy(now)
		completion = start + int64(s.cfg.L2Latency) + int64(s.cfg.DRAMLatency)
	}
	co.mshr.allocate(line, completion)
	return completion
}

// dramOccupy reserves one line service slot on the shared DRAM channel
// starting no earlier than arrival, returning the service start cycle.
func (s *sim) dramOccupy(arrival int64) int64 {
	s.dramReqs++
	start := s.dramFree
	if arrival > start {
		start = arrival
	}
	s.dramSurplus += s.dramService
	whole := int64(s.dramSurplus)
	s.dramSurplus -= float64(whole)
	s.dramFree = start + whole
	return start
}

func (s *sim) latencyOf(op isa.Op) int {
	switch op.Class() {
	case isa.ClassFP:
		return s.cfg.FPLatency
	case isa.ClassSFU:
		return s.cfg.SFULatency
	case isa.ClassSMem:
		return s.cfg.SMemLatency
	default:
		return s.cfg.ALULatency
	}
}

// finishWarp marks the warp done and admits a new block if its block
// drained.
func (s *sim) finishWarp(co *core, w *warpState, now int64) {
	w.done = true
	co.wakes[w.slot] = maxInt64
	b := w.block
	b.alive--
	if b.alive > 0 {
		// A barrier may now be satisfiable by the remaining warps.
		if b.barWait >= b.alive && b.barWait > 0 {
			co.release(b, now)
		}
		return
	}
	// Compact the drained block out of the resident warps and the wake
	// column, and admit the next block. The greedy warp may point into
	// the drained slab, which a later admission reuses.
	if co.greedy != nil && co.greedy.block == b {
		co.greedy = nil
	}
	live := 0
	for i, ws := range co.warps {
		if ws.block != b {
			co.warps[live], co.wakes[live] = ws, co.wakes[i]
			ws.slot = live
			live++
		}
	}
	co.warps, co.wakes = co.warps[:live], co.wakes[:live]
	if err := co.admitBlock(s.numRegs, now+1); err != nil && s.err == nil {
		s.err = err
	}
	// Only now may a later admission reuse b: issue still advances the
	// exiting warp's cursor after this returns.
	if !s.freshBlocks {
		co.spare = append(co.spare, b)
	}
	if len(co.warps) == 0 && len(co.pending) == 0 {
		co.done = true
		co.cycles = now + 1
	}
}

// release frees the block's live warps from a completed barrier; they
// may issue from the next cycle.
func (co *core) release(b *blockState, now int64) {
	b.barWait = 0
	for i := range b.warps {
		if ws := &b.warps[i]; !ws.done {
			ws.atBar = false
			co.setWake(ws, now+1)
		}
	}
}

// admitBlock moves the next pending block into residency, priming each
// warp's cursor on its first record. A spare block's warp slab,
// scoreboards and cursors are reused.
func (co *core) admitBlock(numRegs int, wake int64) error {
	if len(co.pending) == 0 {
		return nil
	}
	traces := co.pending[0]
	co.pending = co.pending[1:]
	var b *blockState // every block of a kernel has the same warp count
	if n := len(co.spare); n > 0 {
		b = co.spare[n-1]
		co.spare = co.spare[:n-1]
		clear(b.regReady)
		clear(b.regFromMem)
	} else {
		b = &blockState{
			warps:      make([]warpState, len(traces)),
			regReady:   make([]int64, len(traces)*numRegs),
			regFromMem: make([]bool, len(traces)*numRegs),
		}
	}
	b.alive, b.barWait = len(traces), 0
	for i, wt := range traces {
		ws := &b.warps[i]
		lo, hi := i*numRegs, (i+1)*numRegs
		*ws = warpState{
			cur:        ws.cur, // keeps its line buffer
			regReady:   b.regReady[lo:hi:hi],
			regFromMem: b.regFromMem[lo:hi:hi],
			slot:       len(co.warps),
			block:      b,
			probePos:   -1,
		}
		ws.cur.ResetTo(&wt.ColWarp)
		if err := ws.advance(); err != nil {
			return err
		}
		co.warps = append(co.warps, ws)
		co.wakes = append(co.wakes, 0)
		co.setWake(ws, wake)
	}
	return nil
}
