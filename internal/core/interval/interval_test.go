package interval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

func rec(pc int, op isa.Op, dst isa.Reg, srcs ...isa.Reg) trace.Rec {
	r := trace.Rec{PC: int32(pc), Op: op, Dst: dst, Mask: 1}
	for i := range r.Srcs {
		r.Srcs[i] = isa.RegNone
	}
	for i, s := range srcs {
		r.Srcs[i] = s
		r.NumSrcs++
	}
	return r
}

func table(lat ...float64) *PCTable {
	return &PCTable{Latency: lat,
		L1MissRate: make([]float64, len(lat)),
		L2MissRate: make([]float64, len(lat)),
		DistL1:     make([]float64, len(lat)),
		DistL2:     make([]float64, len(lat)),
		DistDRAM:   make([]float64, len(lat)),
	}
}

// colWarp encodes recs as a warp, as the emulator's sink does.
func colWarp(tb testing.TB, recs []trace.Rec) *trace.WarpTrace {
	tb.Helper()
	var b trace.ColBuilder
	for i := range recs {
		if err := b.Append(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return &trace.WarpTrace{ColWarp: b.Finish()}
}

func build(t *testing.T, recs []trace.Rec, tbl *PCTable) *Profile {
	t.Helper()
	p, err := Build(colWarp(t, recs), 16, 1, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNoDependenciesSingleInterval(t *testing.T) {
	recs := []trace.Rec{rec(0, isa.OpIAdd, 1), rec(0, isa.OpIAdd, 2), rec(0, isa.OpIAdd, 3)}
	p := build(t, recs, table(4))
	if len(p.Intervals) != 1 || p.Intervals[0].Insts != 3 || p.Stall != 0 {
		t.Fatalf("profile = %+v", p)
	}
	if p.TotalCycles() != 3 {
		t.Errorf("TotalCycles = %g", p.TotalCycles())
	}
}

// TestPaperFigure6Example reproduces the structure of the paper's Figure 6:
// an instruction (i3) with a long latency whose consumer (i5) is two
// instructions later creates a stall and splits the trace into two
// intervals.
func TestPaperFigure6Example(t *testing.T) {
	// PC latencies: pc0 = 1 cycle, pc1 = 10 cycles.
	recs := []trace.Rec{
		rec(0, isa.OpIAdd, 1),    // i1 issue 0
		rec(0, isa.OpIAdd, 2),    // i2 issue 1
		rec(1, isa.OpLdG, 3),     // i3 issue 2, done 12
		rec(0, isa.OpIAdd, 4),    // i4 issue 3
		rec(0, isa.OpIAdd, 5, 3), // i5 depends on i3: issue 13
		rec(0, isa.OpIAdd, 6),    // i6 issue 14
	}
	p := build(t, recs, table(1, 10))
	if len(p.Intervals) != 2 {
		t.Fatalf("intervals = %d, want 2", len(p.Intervals))
	}
	iv0, iv1 := p.Intervals[0], p.Intervals[1]
	if iv0.Insts != 4 || iv1.Insts != 2 {
		t.Errorf("interval sizes = %d/%d, want 4/2", iv0.Insts, iv1.Insts)
	}
	// i4 issues at 3; i5 at 13 -> stall of 9 cycles.
	if iv0.StallCycles != 9 {
		t.Errorf("stall = %g, want 9", iv0.StallCycles)
	}
	if iv0.CausePC != 1 || iv0.CauseClass != isa.ClassGMem {
		t.Errorf("cause = pc %d class %s", iv0.CausePC, iv0.CauseClass)
	}
}

func TestEq4IssueRule(t *testing.T) {
	// Dependent chain at latency 5: each instruction stalls 4 cycles.
	recs := []trace.Rec{
		rec(0, isa.OpIAdd, 1),
		rec(0, isa.OpIAdd, 2, 1),
		rec(0, isa.OpIAdd, 3, 2),
	}
	p := build(t, recs, table(5))
	// Eq. 4: a consumer issues at done+1 (Figure 6: i3 done at 12, i5
	// issues at 13). Issues at 0, 6, 12 -> 13 total cycles, 10 stalls.
	if p.TotalCycles() != 13 || p.Stall != 10 {
		t.Errorf("cycles %g stall %g, want 13/10", p.TotalCycles(), p.Stall)
	}
	if len(p.Intervals) != 3 {
		t.Errorf("intervals = %d, want 3", len(p.Intervals))
	}
}

func TestWarpPerfEq5(t *testing.T) {
	recs := []trace.Rec{
		rec(0, isa.OpIAdd, 1),
		rec(0, isa.OpIAdd, 2, 1),
	}
	p := build(t, recs, table(11))
	// Issues at 0 and 12 (done 11 + 1): 13 cycles, perf = 2/13.
	if got := p.WarpPerf(); got < 2.0/13-1e-9 || got > 2.0/13+1e-9 {
		t.Errorf("WarpPerf = %g, want %g", got, 2.0/13)
	}
	if p.IssueProb() != p.WarpPerf() {
		t.Error("Eq. 9 issue probability must equal Eq. 5 at issue rate 1")
	}
}

func TestMemoryAccounting(t *testing.T) {
	tbl := table(1, 100)
	tbl.L1MissRate[1] = 0.5
	tbl.L2MissRate[1] = 0.25
	tbl.DistL2[1] = 0.4
	tbl.DistDRAM[1] = 0.1
	ldRec := rec(1, isa.OpLdG, 1)
	ldRec.Lines = []uint64{0, 128, 256, 384}
	stRec := rec(1, isa.OpStG, isa.RegNone, 1)
	stRec.Op = isa.OpStG
	stRec.Lines = []uint64{512, 640}
	recs := []trace.Rec{ldRec, stRec}
	p := build(t, recs, tbl)
	iv := p.Intervals[len(p.Intervals)-1]
	var mshr, dram, mInsts float64
	for _, v := range p.Intervals {
		mshr += v.MSHRReqs
		dram += v.DRAMReqs
		mInsts += float64(v.MemInsts)
	}
	_ = iv
	if mInsts != 1 {
		t.Errorf("MemInsts = %g, want 1 (stores excluded)", mInsts)
	}
	if mshr != 4*0.5 {
		t.Errorf("MSHRReqs = %g, want 2 (reqs x L1 miss rate)", mshr)
	}
	if dram != 4*0.25+2 {
		t.Errorf("DRAMReqs = %g, want 3 (reads x L2 miss + all stores)", dram)
	}
}

func TestMergeWindowDedupesLines(t *testing.T) {
	tbl := table(1, 30)
	tbl.L1MissRate[1] = 1
	mk := func() trace.Rec {
		r := rec(1, isa.OpLdG, 1)
		r.Lines = []uint64{0x1000}
		return r
	}
	recs := []trace.Rec{mk(), mk(), mk()}
	tbl.MergeWindow = 100 // touches 1 cycle apart: all merge
	p := build(t, recs, tbl)
	var mshr float64
	for _, iv := range p.Intervals {
		mshr += iv.MSHRReqs
	}
	if mshr != 1 {
		t.Errorf("merged MSHRReqs = %g, want 1", mshr)
	}
	// With a zero window, nothing merges.
	tbl.MergeWindow = 0
	p = build(t, recs, tbl)
	mshr = 0
	for _, iv := range p.Intervals {
		mshr += iv.MSHRReqs
	}
	if mshr != 3 {
		t.Errorf("unmerged MSHRReqs = %g, want 3", mshr)
	}
}

func TestMergeWindowExpires(t *testing.T) {
	tbl := table(1, 500) // long load latency forces big gaps
	tbl.L1MissRate[0] = 0
	tbl.L1MissRate[1] = 1
	tbl.MergeWindow = 100
	ld1 := rec(1, isa.OpLdG, 1)
	ld1.Lines = []uint64{0x1000}
	use := rec(0, isa.OpIAdd, 2, 1) // stalls 499 cycles
	ld2 := rec(1, isa.OpLdG, 3)
	ld2.Lines = []uint64{0x1000} // same line, but 500 cycles later
	p := build(t, []trace.Rec{ld1, use, ld2}, tbl)
	var mshr float64
	for _, iv := range p.Intervals {
		mshr += iv.MSHRReqs
	}
	if mshr != 2 {
		t.Errorf("MSHRReqs = %g, want 2 (window expired)", mshr)
	}
}

func TestStoreDoesNotStall(t *testing.T) {
	// A store's "completion" must not stall later instructions.
	tbl := table(1, 400)
	stRec := rec(1, isa.OpStG, isa.RegNone, 1)
	stRec.Lines = []uint64{0}
	// The store's value (r1) is produced two instructions earlier, so the
	// store itself is ready at issue; despite the 400-cycle memory PC
	// latency, nothing downstream stalls on the store.
	recs := []trace.Rec{rec(0, isa.OpIAdd, 1), rec(0, isa.OpIAdd, 2), stRec, rec(0, isa.OpIAdd, 3)}
	p := build(t, recs, tbl)
	if p.Stall != 0 {
		t.Errorf("store caused %g stall cycles", p.Stall)
	}
}

func TestValidationErrors(t *testing.T) {
	w := colWarp(t, []trace.Rec{rec(0, isa.OpIAdd, 1)})
	if _, err := Build(w, 16, 0, table(1)); err == nil {
		t.Error("zero issue rate accepted")
	}
	if _, err := Build(w, 16, 1, nil); err == nil {
		t.Error("nil table accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	p, err := Build(&trace.WarpTrace{}, 16, 1, table())
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts != 0 || len(p.Intervals) != 0 {
		t.Errorf("empty profile = %+v", p)
	}
}

func TestLatencyFloor(t *testing.T) {
	tbl := table(0.25)
	if got := tbl.LatencyOf(0); got != 1 {
		t.Errorf("LatencyOf floor = %g, want 1", got)
	}
	if got := tbl.LatencyOf(99); got != 1 {
		t.Errorf("LatencyOf out of range = %g, want 1", got)
	}
}

// TestQuickConservation: for random traces, instructions and stalls are
// conserved between the profile totals and the per-interval sums, and the
// number of intervals never exceeds the instruction count.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		lat := []float64{1, 4, 25, 420}
		tbl := table(lat...)
		var recs []trace.Rec
		for i := 0; i < n; i++ {
			pc := r.Intn(len(lat))
			dst := isa.Reg(r.Intn(12))
			var srcs []isa.Reg
			for s := 0; s < r.Intn(3); s++ {
				srcs = append(srcs, isa.Reg(r.Intn(12)))
			}
			recs = append(recs, rec(pc, isa.OpIAdd, dst, srcs...))
		}
		w := colWarp(t, recs)
		p, err := Build(w, 16, 1, tbl)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		if p.Insts != n || len(p.Intervals) > n {
			return false
		}
		// Total cycles >= instruction count (issue bound).
		return p.TotalCycles() >= float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMonotoneLatency: raising a PC's latency never reduces the
// total cycles.
func TestQuickMonotoneLatency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		var recs []trace.Rec
		for i := 0; i < n; i++ {
			recs = append(recs, rec(0, isa.OpIAdd, isa.Reg(r.Intn(6)), isa.Reg(r.Intn(6))))
		}
		w := colWarp(t, recs)
		lo, err := Build(w, 16, 1, table(2))
		if err != nil {
			return false
		}
		hi, err := Build(w, 16, 1, table(20))
		if err != nil {
			return false
		}
		return hi.TotalCycles() >= lo.TotalCycles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
