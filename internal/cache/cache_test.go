package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpumech/internal/config"
	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// MustNewArray is NewArray that panics on configuration errors, for
// fixed test geometries.
func MustNewArray(sizeBytes, lineBytes, assoc int) *Array {
	a, err := NewArray(sizeBytes, lineBytes, assoc)
	if err != nil {
		panic(err)
	}
	return a
}

// refArray is a set-associative LRU tag array in its most direct form,
// with an explicit valid bit per way: the reference Array is checked
// against.
type refArray struct {
	sets, assoc int
	lineBytes   uint64
	valid       []bool
	line        []uint64
	stamp       []uint64
	clock       uint64
}

func newRefArray(sizeBytes, lineBytes, assoc int) *refArray {
	n := sizeBytes / lineBytes
	return &refArray{sets: n / assoc, assoc: assoc, lineBytes: uint64(lineBytes),
		valid: make([]bool, n), line: make([]uint64, n), stamp: make([]uint64, n)}
}

// lookup probes (tick false) or accesses the line holding addr,
// allocating an LRU way on a miss when fill is set.
func (r *refArray) lookup(addr uint64, tick, fill bool) bool {
	ln := addr / r.lineBytes
	base := int(ln%uint64(r.sets)) * r.assoc
	if tick {
		r.clock++
	}
	victim := -1
	for i := base; i < base+r.assoc; i++ {
		if r.valid[i] && r.line[i] == ln {
			if tick {
				r.stamp[i] = r.clock
			}
			return true
		}
		switch {
		case !r.valid[i]:
			victim = i
		case victim < 0 || r.valid[victim] && r.stamp[i] < r.stamp[victim]:
			victim = i
		}
	}
	if fill {
		r.valid[victim], r.line[victim], r.stamp[victim] = true, ln, r.clock
	}
	return false
}

// TestArrayMatchesReference drives Array and refArray with the same
// random accesses, touches, probes and resets, over geometries that
// include one-byte lines — which config.Validate accepts, and where
// every 64-bit value is a line, including the line at address 2^64-1 —
// a single set, and a set count that is not a power of two.
func TestArrayMatchesReference(t *testing.T) {
	const top = ^uint64(0)
	geoms := []struct{ size, line, assoc int }{
		{8, 1, 8},  // one set of eight 1-byte lines
		{64, 1, 4}, // 16 sets
		{48, 1, 4}, // 12 sets: modulo indexing
		{1024, 128, 2},
		{768, 128, 2}, // 3 sets
	}
	for _, g := range geoms {
		a := MustNewArray(g.size, g.line, g.assoc)
		ref := newRefArray(g.size, g.line, g.assoc)
		// A fresh array holds nothing, not even the lines whose numbers
		// an encoding might reserve as empty markers.
		for _, addr := range []uint64{0, top, top - 1} {
			if a.Probe(addr) {
				t.Fatalf("%v: fresh array hits %#x", g, addr)
			}
		}
		pool := []uint64{0, 1, 2, top, top - 1, top - 2, top - 128, 128, 256, 1 << 40}
		rng := rand.New(rand.NewSource(int64(g.size*131 + g.line)))
		for i := 0; i < 300; i++ {
			pool = append(pool, rng.Uint64())
		}
		for step := 0; step < 20000; step++ {
			addr := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				addr = pool[rng.Intn(6)] // dwell on the extremes
			}
			var got, want bool
			switch op := rng.Intn(100); {
			case op == 0:
				a.Reset()
				*ref = *newRefArray(g.size, g.line, g.assoc)
				continue
			case op < 45:
				got, want = a.Access(addr), ref.lookup(addr, true, true)
			case op < 60:
				got, want = a.Touch(addr), ref.lookup(addr, true, false)
			default:
				got, want = a.Probe(addr), ref.lookup(addr, false, false)
			}
			if got != want {
				t.Fatalf("%v step %d op on %#x: hit = %v, reference %v", g, step, addr, got, want)
			}
		}
	}
	// The top line itself: cold miss, then hit, then evicted by assoc
	// newer lines of the same (only) set.
	a := MustNewArray(4, 1, 4)
	if a.Access(top) || !a.Access(top) || !a.Probe(top) {
		t.Fatal("line at 2^64-1 not cached")
	}
	for i := uint64(0); i < 4; i++ {
		a.Access(i)
	}
	if a.Probe(top) {
		t.Fatal("line at 2^64-1 not evicted")
	}
}

func TestArrayBasicHitMiss(t *testing.T) {
	a := MustNewArray(1024, 128, 2) // 4 sets x 2 ways
	if a.Access(0) {
		t.Error("cold access hit")
	}
	if !a.Access(0) {
		t.Error("immediate re-access missed")
	}
	if !a.Access(64) {
		t.Error("same-line offset missed")
	}
	if a.Access(128) {
		t.Error("different line hit")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := MustNewArray(1024, 128, 2) // 4 sets; lines 0, 512, 1024 map to set 0
	a.Access(0)
	a.Access(512)
	a.Access(0)    // refresh line 0; 512 becomes LRU
	a.Access(1024) // evicts 512
	if !a.Probe(0) {
		t.Error("recently used line evicted")
	}
	if a.Probe(512) {
		t.Error("LRU line not evicted")
	}
	if !a.Probe(1024) {
		t.Error("newly filled line absent")
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	a := MustNewArray(1024, 128, 2)
	a.Probe(0)
	if a.Probe(0) {
		t.Error("probe allocated a line")
	}
	// Probe must not refresh LRU either.
	a.Access(0)
	a.Access(512)
	a.Probe(0)     // must NOT move 0 to MRU... probes refresh nothing
	a.Access(1024) // evicts LRU = 0
	if a.Probe(0) {
		t.Error("probe refreshed LRU state")
	}
}

func TestTouchRefreshesWithoutAllocating(t *testing.T) {
	a := MustNewArray(1024, 128, 2)
	if a.Touch(0) {
		t.Error("touch of absent line hit")
	}
	if a.Probe(0) {
		t.Error("touch allocated")
	}
	a.Access(0)
	a.Access(512)
	a.Touch(0)     // refresh 0: now 512 is LRU
	a.Access(1024) // evicts 512
	if !a.Probe(0) {
		t.Error("touched line evicted")
	}
}

func TestArraySizeValidation(t *testing.T) {
	if _, err := NewArray(1000, 128, 2); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := NewArray(1024, 100, 2); err == nil {
		t.Error("non-pow2 line accepted")
	}
	if _, err := NewArray(1024, 128, 0); err == nil {
		t.Error("zero assoc accepted")
	}
}

func TestArrayReset(t *testing.T) {
	a := MustNewArray(1024, 128, 2)
	a.Access(0)
	a.Reset()
	if a.Probe(0) {
		t.Error("reset did not invalidate")
	}
}

func TestQuickImmediateReaccessHits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := MustNewArray(32*1024, 128, 8)
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(1 << 20))
			a.Access(addr)
			if !a.Access(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWorkingSetWithinCapacityAlwaysHits(t *testing.T) {
	// Accessing assoc lines per set repeatedly never misses after warmup.
	a := MustNewArray(4096, 128, 4) // 8 sets, 4 ways
	var addrs []uint64
	for w := 0; w < 4; w++ {
		addrs = append(addrs, uint64(w*8*128)) // all map to set 0
	}
	for _, ad := range addrs {
		a.Access(ad)
	}
	for round := 0; round < 10; round++ {
		for _, ad := range addrs {
			if !a.Access(ad) {
				t.Fatalf("capacity-resident line missed")
			}
		}
	}
}

// buildMemTrace constructs a one-block kernel trace with the given global
// memory records.
func buildMemTrace(recs [][]trace.Rec) *trace.Kernel {
	prog := &isa.Program{Name: "synth", NumRegs: 8, NumPreds: 2, Instrs: make([]isa.Instr, 8)}
	prog.Instrs[0] = isa.Instr{Op: isa.OpLdG}
	prog.Instrs[1] = isa.Instr{Op: isa.OpStG}
	prog.Instrs[7] = isa.Instr{Op: isa.OpExit}
	k := &trace.Kernel{Name: "synth", Prog: prog, Blocks: len(recs), WarpsPerBlock: 1, LineBytes: 128}
	for b, rs := range recs {
		k.Warps = append(k.Warps, colWarp(b, 0, rs))
	}
	return k
}

// colWarp encodes recs as warp w of block b, as the emulator's sink does.
func colWarp(b, w int, recs []trace.Rec) *trace.WarpTrace {
	var cb trace.ColBuilder
	for i := range recs {
		if err := cb.Append(&recs[i]); err != nil {
			panic(err)
		}
	}
	return &trace.WarpTrace{BlockID: b, WarpID: w, ColWarp: cb.Finish()}
}

func ld(pc int, lines ...uint64) trace.Rec {
	r := trace.Rec{PC: int32(pc), Op: isa.OpLdG, Dst: 1, Mask: 0xFFFFFFFF, Lines: lines}
	for i := range r.Srcs {
		r.Srcs[i] = isa.RegNone
	}
	return r
}

func st(pc int, lines ...uint64) trace.Rec {
	r := trace.Rec{PC: int32(pc), Op: isa.OpStG, Dst: isa.RegNone, Mask: 0xFFFFFFFF, Lines: lines}
	for i := range r.Srcs {
		r.Srcs[i] = isa.RegNone
	}
	return r
}

func testCfg() config.Config {
	c := config.Baseline()
	c.Cores = 1
	c.WarpsPerCore = 1
	return c
}

func TestSimulateColdMissThenHit(t *testing.T) {
	k := buildMemTrace([][]trace.Rec{{
		ld(0, 0x1000),
		ld(0, 0x1000),
	}})
	prof, err := Simulate(k, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := prof.Stats(0)
	if s == nil || s.Insts != 2 || s.Reqs != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.L2MissInsts != 1 || s.L1HitInsts != 1 {
		t.Errorf("classification: %+v, want 1 DRAM + 1 L1 hit", s)
	}
}

func TestSimulateWorstRequestClassification(t *testing.T) {
	// First load warms line A in L1 and L2; second load touches A (L1
	// hit) and a new line B (DRAM): instruction classified by B.
	k := buildMemTrace([][]trace.Rec{{
		ld(0, 0x1000),
		ld(0, 0x1000, 0x2000),
	}})
	prof, err := Simulate(k, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := prof.Stats(0)
	if s.L2MissInsts != 2 {
		t.Errorf("worst-request classification failed: %+v", s)
	}
	if s.L1HitReqs != 1 || s.L2MissReqs != 2 {
		t.Errorf("request counts: %+v", s)
	}
}

func TestSimulateStoresWriteThroughNoAllocate(t *testing.T) {
	k := buildMemTrace([][]trace.Rec{{
		st(1, 0x3000),
		ld(0, 0x3000), // must still miss: the store did not allocate
	}})
	prof, err := Simulate(k, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s := prof.Stats(0); s.L2MissInsts != 1 {
		t.Errorf("store allocated a line: %+v", s)
	}
	if s := prof.Stats(1); !s.IsStore || s.Reqs != 1 {
		t.Errorf("store stats: %+v", s)
	}
}

func TestSimulateL2SharedAcrossCores(t *testing.T) {
	// Two blocks on two cores touch the same line: the second core's
	// access must hit in the shared L2 (its private L1 is cold).
	cfg := config.Baseline()
	cfg.Cores = 2
	cfg.WarpsPerCore = 1
	k := buildMemTrace([][]trace.Rec{
		{ld(0, 0x1000)},
		{ld(0, 0x1000)},
	})
	prof, err := Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := prof.Stats(0)
	if s.L2MissInsts != 1 || s.L2HitInsts != 1 {
		t.Errorf("shared L2 behaviour wrong: %+v", s)
	}
}

func TestAMATPaperExample(t *testing.T) {
	// Section V-B: 90% L2 hit (120) + 10% L2 miss (420) -> 150 cycles.
	prof := &Profile{Cfg: config.Baseline(), PCs: map[int]*PCStats{
		0: {Insts: 10, Reqs: 10, L2HitInsts: 9, L2MissInsts: 1},
	}}
	if got := prof.AMAT(0); got != 150 {
		t.Errorf("AMAT = %g, want 150 (paper example)", got)
	}
}

func TestAvgMissLatency(t *testing.T) {
	prof := &Profile{Cfg: config.Baseline(), PCs: map[int]*PCStats{
		0: {Insts: 2, L2HitInsts: 1, L2MissInsts: 1},
	}}
	if got := prof.AvgMissLatency(); got != (120+420)/2 {
		t.Errorf("AvgMissLatency = %g, want 270", got)
	}
	empty := &Profile{Cfg: config.Baseline(), PCs: map[int]*PCStats{}}
	if got := empty.AvgMissLatency(); got != 120 {
		t.Errorf("empty AvgMissLatency = %g, want L2 latency fallback", got)
	}
}

func TestMissRates(t *testing.T) {
	s := &PCStats{Insts: 4, Reqs: 8, L1HitReqs: 4, L2HitReqs: 2, L2MissReqs: 2,
		L1HitInsts: 2, L2HitInsts: 1, L2MissInsts: 1}
	if got := s.L1ReqMissRate(); got != 0.5 {
		t.Errorf("L1ReqMissRate = %g", got)
	}
	if got := s.L2ReqMissRate(); got != 0.25 {
		t.Errorf("L2ReqMissRate = %g", got)
	}
	if got := s.ReqsPerInst(); got != 2 {
		t.Errorf("ReqsPerInst = %g", got)
	}
	l1, l2, dram := s.MissEventDist()
	if l1 != 0.5 || l2 != 0.25 || dram != 0.25 {
		t.Errorf("dist = %g %g %g", l1, l2, dram)
	}
}

func TestSimulateValidatesConfig(t *testing.T) {
	k := buildMemTrace([][]trace.Rec{{ld(0, 0)}})
	bad := testCfg()
	bad.Cores = 0
	if _, err := Simulate(k, bad); err == nil {
		t.Error("invalid config accepted")
	}
	mismatch := testCfg()
	k.LineBytes = 64
	if _, err := Simulate(k, mismatch); err == nil {
		t.Error("line-size mismatch accepted")
	}
}

func TestSimulateRoundRobinInterleaving(t *testing.T) {
	// Two warps resident on one core, each streaming over the same two
	// lines alternately: round-robin interleaving means warp B's first
	// access hits lines warp A just filled.
	cfg := testCfg()
	cfg.WarpsPerCore = 2
	prog := &isa.Program{Name: "rr", NumRegs: 8, NumPreds: 2, Instrs: make([]isa.Instr, 2)}
	prog.Instrs[0] = isa.Instr{Op: isa.OpLdG}
	prog.Instrs[1] = isa.Instr{Op: isa.OpExit}
	k := &trace.Kernel{Name: "rr", Prog: prog, Blocks: 1, WarpsPerBlock: 2, LineBytes: 128,
		Warps: []*trace.WarpTrace{
			colWarp(0, 0, []trace.Rec{ld(0, 0x1000), ld(0, 0x2000)}),
			colWarp(0, 1, []trace.Rec{ld(0, 0x1000), ld(0, 0x2000)}),
		}}
	prof, err := Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := prof.Stats(0)
	if s.L1HitInsts != 2 || s.L2MissInsts != 2 {
		t.Errorf("round-robin sharing: %+v, want 2 hits + 2 misses", s)
	}
}
