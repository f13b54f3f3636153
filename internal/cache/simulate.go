package cache

import (
	"fmt"

	"gpumech/internal/config"
	"gpumech/internal/trace"
)

// Simulate runs the functional cache simulation for the kernel trace on
// the given configuration and returns the per-PC profile.
//
// Mirroring Section V-A, the simulator models a system with the same
// number of warps and cores as the target: blocks are distributed
// round-robin over cores, each core keeps WarpsPerCore warps resident
// (block-granular residency), and resident warps contribute their memory
// instructions in round-robin order. Cores advance in lockstep, one
// instruction per core per round, so they interleave in the shared L2.
// Loads allocate in L1 and L2; stores are write-through no-allocate.
func Simulate(k *trace.Kernel, cfg config.Config) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k.LineBytes != cfg.L1LineBytes {
		return nil, fmt.Errorf("cache: trace coalesced at %d-byte lines but config uses %d", k.LineBytes, cfg.L1LineBytes)
	}
	if cfg.WarpsPerCore%k.WarpsPerBlock != 0 {
		return nil, fmt.Errorf("cache: WarpsPerCore (%d) not a multiple of the kernel's warps per block (%d)",
			cfg.WarpsPerCore, k.WarpsPerBlock)
	}
	l2, err := NewArray(cfg.L2SizeBytes, cfg.L2LineBytes, cfg.L2Assoc)
	if err != nil {
		return nil, err
	}
	prof := &Profile{Cfg: cfg, PCs: make(map[int]*PCStats)}
	asg := trace.Assign(k.Blocks, cfg.Cores)

	cores := make([]*coreState, cfg.Cores)
	for c := range cores {
		l1, err := NewArray(cfg.L1SizeBytes, cfg.L1LineBytes, cfg.L1Assoc)
		if err != nil {
			return nil, err
		}
		cores[c] = newCoreState(asg.WarpsForCore(k, c), cfg.WarpsPerCore/k.WarpsPerBlock*k.WarpsPerBlock, l1)
	}

	for {
		busy := false
		for _, cs := range cores {
			if cs.step(l2, prof) {
				busy = true
			}
			if cs.err != nil {
				return nil, fmt.Errorf("cache: %w", cs.err)
			}
		}
		if !busy {
			return prof, nil
		}
	}
}

// warpCursor walks the global-memory instructions of one warp trace
// through its record cursor, decoding one record at a time. The underlying cursor's current record stays valid
// until the next advance, which lets done() peek at the next qualifying
// record without copying it.
type warpCursor struct {
	cur       *trace.ColCursor
	peeked    bool // cur is parked on an unconsumed qualifying record
	exhausted bool
	err       error
}

func newWarpCursor(w *trace.WarpTrace) *warpCursor {
	return &warpCursor{cur: w.Cursor()}
}

// advance moves the underlying cursor to the next global-memory record
// with active lanes, parking on it (peeked) or marking exhaustion.
func (wc *warpCursor) advance() {
	for wc.cur.Next() {
		r := wc.cur.Rec()
		if r.IsGlobalMem() && r.Mask != 0 {
			wc.peeked = true
			return
		}
	}
	wc.err = wc.cur.Err()
	wc.exhausted = true
}

// next consumes and returns the next qualifying record, or nil when the
// warp has none left. The record is valid until the next next()/done().
func (wc *warpCursor) next() *trace.Rec {
	if !wc.peeked && !wc.exhausted {
		wc.advance()
	}
	if wc.exhausted {
		return nil
	}
	wc.peeked = false
	return wc.cur.Rec()
}

func (wc *warpCursor) done() bool {
	if !wc.peeked && !wc.exhausted {
		wc.advance()
	}
	return wc.exhausted
}

// coreState holds one core's resident warps and its L1.
type coreState struct {
	pending  []*trace.WarpTrace // not yet resident, in launch order
	resident []*warpCursor
	maxRes   int
	rr       int // round-robin position
	l1       *Array
	err      error
}

func newCoreState(warps []*trace.WarpTrace, maxResident int, l1 *Array) *coreState {
	return &coreState{pending: warps, maxRes: maxResident, l1: l1}
}

// step processes one memory instruction from the core's next resident warp
// in round-robin order. It returns false when the core has no work left.
func (cs *coreState) step(l2 *Array, prof *Profile) bool {
	cs.refill()
	if len(cs.resident) == 0 {
		return false
	}
	n := len(cs.resident)
	for i := 0; i < n; i++ {
		wc := cs.resident[cs.rr%len(cs.resident)]
		cs.rr++
		r := wc.next()
		if r == nil {
			if wc.err != nil && cs.err == nil {
				cs.err = wc.err
			}
			continue
		}
		cs.access(r, l2, prof)
		return true
	}
	// Every resident warp is exhausted; drop them and admit new blocks.
	cs.compact()
	if len(cs.pending) == 0 && len(cs.resident) == 0 {
		return false
	}
	return cs.step(l2, prof)
}

func (cs *coreState) compact() {
	live := cs.resident[:0]
	for _, wc := range cs.resident {
		if !wc.done() {
			live = append(live, wc)
		} else if wc.err != nil && cs.err == nil {
			cs.err = wc.err
		}
	}
	cs.resident = live
}

func (cs *coreState) refill() {
	for len(cs.resident) < cs.maxRes && len(cs.pending) > 0 {
		w := cs.pending[0]
		cs.pending = cs.pending[1:]
		cs.resident = append(cs.resident, newWarpCursor(w))
	}
}

// access simulates one global-memory warp instruction.
func (cs *coreState) access(r *trace.Rec, l2 *Array, prof *Profile) {
	pc := int(r.PC)
	st := prof.PCs[pc]
	if st == nil {
		st = &PCStats{IsStore: r.Op.IsStore()}
		prof.PCs[pc] = st
	}
	st.Insts++
	st.Reqs += int64(len(r.Lines))

	if r.Op.IsStore() {
		// Write-through, no-allocate: refresh lines that happen to be
		// present, never fill. All store requests reach DRAM.
		for _, line := range r.Lines {
			cs.l1.Touch(line)
			l2.Touch(line)
		}
		return
	}

	worst := 0 // 0 = L1 hit, 1 = L2 hit, 2 = DRAM
	for _, line := range r.Lines {
		if cs.l1.Access(line) {
			st.L1HitReqs++
			continue
		}
		if l2.Access(line) {
			st.L2HitReqs++
			worst = max(worst, 1)
			continue
		}
		st.L2MissReqs++
		worst = 2
	}
	switch worst {
	case 0:
		st.L1HitInsts++
	case 1:
		st.L2HitInsts++
	default:
		st.L2MissInsts++
	}
}
