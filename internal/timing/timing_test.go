package timing

import (
	"math"
	"strings"
	"testing"

	"gpumech/internal/config"
	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// testProg builds a minimal program whose PCs carry the opcode classes
// used by the synthetic traces below.
func testProg() *isa.Program {
	instrs := make([]isa.Instr, 8)
	instrs[0] = isa.Instr{Op: isa.OpIAdd} // ALU
	instrs[1] = isa.Instr{Op: isa.OpFAdd} // FP
	instrs[2] = isa.Instr{Op: isa.OpLdG}  // load
	instrs[3] = isa.Instr{Op: isa.OpStG}  // store
	instrs[4] = isa.Instr{Op: isa.OpBar}  // barrier
	instrs[7] = isa.Instr{Op: isa.OpExit}
	return &isa.Program{Name: "timing-test", NumRegs: 16, NumPreds: 4, Instrs: instrs}
}

func padSrcs(r trace.Rec) trace.Rec {
	for i := int(r.NumSrcs); i < 4; i++ {
		r.Srcs[i] = isa.RegNone
	}
	if r.Dst == 0 {
		r.Dst = isa.RegNone
	}
	return r
}

func alu(dst isa.Reg, srcs ...isa.Reg) trace.Rec {
	r := trace.Rec{PC: 0, Op: isa.OpIAdd, Dst: dst, Mask: ^uint32(0)}
	for i, s := range srcs {
		r.Srcs[i] = s
		r.NumSrcs++
		_ = i
	}
	return padSrcs(r)
}

func fp(dst isa.Reg, srcs ...isa.Reg) trace.Rec {
	r := alu(dst, srcs...)
	r.PC, r.Op = 1, isa.OpFAdd
	return r
}

func load(dst isa.Reg, lines ...uint64) trace.Rec {
	r := trace.Rec{PC: 2, Op: isa.OpLdG, Dst: dst, Mask: ^uint32(0), Lines: lines}
	return padSrcs(r)
}

func store(lines ...uint64) trace.Rec {
	r := trace.Rec{PC: 3, Op: isa.OpStG, Dst: isa.RegNone, Mask: ^uint32(0), Lines: lines}
	return padSrcs(r)
}

func barrier() trace.Rec {
	return padSrcs(trace.Rec{PC: 4, Op: isa.OpBar, Dst: isa.RegNone, Mask: ^uint32(0)})
}

// kernel builds a trace with one warp per inner slice, all in one block
// per blockWarps grouping.
func kernel(warpsPerBlock int, warps ...[]trace.Rec) *trace.Kernel {
	if len(warps)%warpsPerBlock != 0 {
		panic("bad warp count")
	}
	k := &trace.Kernel{Name: "t", Prog: testProg(), Blocks: len(warps) / warpsPerBlock,
		WarpsPerBlock: warpsPerBlock, LineBytes: 128}
	for i, recs := range warps {
		var cb trace.ColBuilder
		for j := range recs {
			if err := cb.Append(&recs[j]); err != nil {
				panic(err)
			}
		}
		k.Warps = append(k.Warps, &trace.WarpTrace{
			BlockID: i / warpsPerBlock, WarpID: i % warpsPerBlock, ColWarp: cb.Finish(),
		})
	}
	return k
}

// cfg1 returns a single-core configuration with n resident warps.
func cfg1(warps int) config.Config {
	c := config.Baseline()
	c.Cores = 1
	c.WarpsPerCore = warps
	return c
}

func simulate(t *testing.T, k *trace.Kernel, c config.Config, pol Policy) *Result {
	t.Helper()
	r, err := Simulate(k, c, pol)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIndependentALUIssuesEveryCycle(t *testing.T) {
	var recs []trace.Rec
	for i := 0; i < 10; i++ {
		recs = append(recs, alu(isa.Reg(i)))
	}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	if r.Cycles != 10 {
		t.Errorf("cycles = %d, want 10 (one issue per cycle)", r.Cycles)
	}
	if r.Insts != 10 || r.CPI != 1.0 {
		t.Errorf("insts %d CPI %g", r.Insts, r.CPI)
	}
}

func TestRAWDependencyStalls(t *testing.T) {
	// i1 depends on i0 (ALU latency 4): issue at 0 and 4 -> 5 cycles.
	recs := []trace.Rec{alu(1), alu(2, 1)}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	if r.Cycles != 5 {
		t.Errorf("cycles = %d, want 5 (RAW on 4-cycle ALU)", r.Cycles)
	}
}

func TestFPLatency(t *testing.T) {
	recs := []trace.Rec{fp(1), fp(2, 1)}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	if r.Cycles != 26 {
		t.Errorf("cycles = %d, want 26 (RAW on 25-cycle FP)", r.Cycles)
	}
}

func TestWAWHazardBlocks(t *testing.T) {
	// Two writes to the same register: the second must wait for the
	// first's writeback.
	recs := []trace.Rec{fp(1), fp(1)}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	if r.Cycles != 26 {
		t.Errorf("cycles = %d, want 26 (WAW)", r.Cycles)
	}
}

func TestColdLoadLatency(t *testing.T) {
	// Cold load: L1 miss, L2 miss, DRAM: 120 + 300 = 420; dependent ALU
	// issues at 420 -> 421 cycles.
	recs := []trace.Rec{load(1, 0x1000), alu(2, 1)}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	if r.Cycles != 421 {
		t.Errorf("cycles = %d, want 421 (cold DRAM load)", r.Cycles)
	}
}

func TestL1HitLatency(t *testing.T) {
	// Warm the line with an independent load first; the second load hits
	// L1 (25 cycles).
	recs := []trace.Rec{
		load(1, 0x1000), // issues at 0, fills L1 immediately (tag-only)
		load(2, 0x1000), // issues at 1, L1 hit: ready at 1+25
		alu(3, 2),       // issues at 26
	}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	if r.Cycles != 27 {
		t.Errorf("cycles = %d, want 27 (L1 hit path)", r.Cycles)
	}
}

func TestMSHRMergingSharesLatency(t *testing.T) {
	// Second load to the same in-flight line merges: it completes with
	// the first, not 420 cycles after its own issue.
	recs := []trace.Rec{
		load(1, 0x1000),
		load(2, 0x1000), // issues at 1, merged, ready at 420
		alu(3, 1, 2),    // issues at 420
	}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	if r.Cycles != 421 {
		t.Errorf("cycles = %d, want 421 (merged miss)", r.Cycles)
	}
}

func TestMSHRStructuralStall(t *testing.T) {
	// One MSHR entry: two loads to different lines serialize even though
	// they are independent.
	c := cfg1(1)
	c.MSHREntries = 1
	recs := []trace.Rec{
		load(1, 0x1000),
		load(2, 0x80000), // different L1 set; must wait for entry 0 to free at 420
		alu(3, 1, 2),
	}
	r := simulate(t, kernel(1, recs), c, RR)
	// Second load issues at ~420, completes ~840, add at ~840.
	if r.Cycles < 800 {
		t.Errorf("cycles = %d, want > 800 (MSHR structural hazard)", r.Cycles)
	}
	if r.MSHRStallCycles == 0 {
		t.Error("MSHR stalls not recorded")
	}
}

func TestOverDivergentLoadIssuesWhenAllFree(t *testing.T) {
	// A load needing more lines than MSHR entries must not deadlock.
	c := cfg1(1)
	c.MSHREntries = 2
	lines := []uint64{0x1000, 0x9000, 0x11000, 0x19000}
	recs := []trace.Rec{load(1, lines...), alu(2, 1)}
	r := simulate(t, kernel(1, recs), c, RR)
	if r.Cycles < 420 {
		t.Errorf("cycles = %d, want >= 420", r.Cycles)
	}
}

func TestRoundRobinInterleavesWarps(t *testing.T) {
	// Two warps with independent ALU streams: RR alternates, finishing
	// both in 8 cycles total.
	w := func() []trace.Rec {
		return []trace.Rec{alu(1), alu(2), alu(3), alu(4)}
	}
	r := simulate(t, kernel(2, w(), w()), cfg1(2), RR)
	if r.Cycles != 8 {
		t.Errorf("cycles = %d, want 8", r.Cycles)
	}
}

func TestMultithreadingHidesLatency(t *testing.T) {
	// One warp: load + dependent op = ~421 cycles. With 8 such warps the
	// core still takes ~421+overhead, not 8x421: latency hiding.
	mk := func(line uint64) []trace.Rec {
		return []trace.Rec{load(1, line), alu(2, 1)}
	}
	var warps [][]trace.Rec
	for i := 0; i < 8; i++ {
		warps = append(warps, mk(uint64(0x1000*(i+1))))
	}
	r := simulate(t, kernel(8, warps...), cfg1(8), RR)
	if r.Cycles > 500 {
		t.Errorf("cycles = %d: multithreading failed to overlap memory latency", r.Cycles)
	}
}

func TestGTOStaysGreedy(t *testing.T) {
	// Two warps of independent ALU ops. GTO must run warp 0 to completion
	// before touching warp 1 (no stalls to force a switch).
	w := func() []trace.Rec {
		return []trace.Rec{alu(1), alu(2), alu(3)}
	}
	k := kernel(2, w(), w())
	r := simulate(t, k, cfg1(2), GTO)
	if r.Cycles != 6 {
		t.Errorf("cycles = %d, want 6", r.Cycles)
	}
	// Behavioural check of greediness: a trace where warp 1's first
	// instruction writes a register warp 0 never touches, then warp 0
	// stalls -> GTO switches only at the stall. Checked indirectly via
	// total cycles above and the policy comparison below.
	rr := simulate(t, k, cfg1(2), RR)
	if rr.Cycles != 6 {
		t.Errorf("RR cycles = %d, want 6", rr.Cycles)
	}
}

func TestBarrierSynchronizesBlock(t *testing.T) {
	// Warp 0 reaches the barrier after a long FP chain; warp 1 arrives
	// immediately and must wait for warp 0.
	w0 := []trace.Rec{fp(1), fp(2, 1), barrier(), alu(3)}
	w1 := []trace.Rec{barrier(), alu(3)}
	r := simulate(t, kernel(2, w0, w1), cfg1(2), RR)
	// Warp 0: fp at ~0, fp at 25, barrier at 26 -> release at 27; the
	// trailing ALUs finish by ~29.
	if r.Cycles < 27 || r.Cycles > 35 {
		t.Errorf("cycles = %d, want ~28 (barrier waits for slow warp)", r.Cycles)
	}
}

func TestBlockAdmissionSerializes(t *testing.T) {
	// Two blocks, residency one block: the second block's work starts
	// only after the first drains.
	w := func() []trace.Rec {
		return []trace.Rec{fp(1), fp(2, 1)} // 26 cycles each
	}
	k := kernel(1, w(), w())
	r := simulate(t, k, cfg1(1), RR)
	if r.Cycles < 50 {
		t.Errorf("cycles = %d, want ~52 (blocks serialized)", r.Cycles)
	}
	// With residency two, they overlap.
	r2 := simulate(t, k, cfg1(2), RR)
	if r2.Cycles > 30 {
		t.Errorf("cycles = %d, want ~27 (blocks co-resident)", r2.Cycles)
	}
}

func TestStoreBackpressureThrottles(t *testing.T) {
	// A store-only stream: with ample bandwidth it issues one per cycle;
	// with tiny bandwidth the DRAM queue backpressure throttles it.
	var recs []trace.Rec
	for i := 0; i < 64; i++ {
		recs = append(recs, store(uint64(i)*128, uint64(i)*128+0x100000))
	}
	fast := simulate(t, kernel(1, recs), cfg1(1), RR)
	slow := cfg1(1)
	slow.DRAMBandwidthGBps = 4 // 32 cycles per line
	slowR := simulate(t, kernel(1, recs), slow, RR)
	if slowR.Cycles <= fast.Cycles*2 {
		t.Errorf("backpressure missing: fast %d cycles, slow %d", fast.Cycles, slowR.Cycles)
	}
}

func TestBandwidthMonotonicity(t *testing.T) {
	// More bandwidth never slows a store-heavy kernel down.
	var recs []trace.Rec
	for i := 0; i < 32; i++ {
		recs = append(recs, store(uint64(i)*128))
	}
	k := kernel(1, recs)
	prev := int64(1 << 60)
	for _, bw := range []float64{8, 32, 128, 512} {
		c := cfg1(1).WithBandwidth(bw)
		r := simulate(t, k, c, RR)
		if r.Cycles > prev {
			t.Errorf("cycles grew from %d to %d when bandwidth rose to %g", prev, r.Cycles, bw)
		}
		prev = r.Cycles
	}
}

func TestSharedDRAMChannelCouplesCores(t *testing.T) {
	// Two cores streaming stores share one channel: per-core time must
	// exceed the single-core run at equal per-core work.
	var recs []trace.Rec
	for i := 0; i < 128; i++ {
		recs = append(recs, store(uint64(i)*128))
	}
	c1 := cfg1(1)
	c1.DRAMBandwidthGBps = 8
	one := simulate(t, kernel(1, recs), c1, RR)

	c2 := c1
	c2.Cores = 2
	two := simulate(t, kernel(1, recs, append([]trace.Rec(nil), recs...)), c2, RR)
	if two.Cycles <= one.Cycles+one.Cycles/4 {
		t.Errorf("channel sharing missing: 1 core %d cycles, 2 cores %d", one.Cycles, two.Cycles)
	}
}

func TestCPIDefinition(t *testing.T) {
	recs := []trace.Rec{alu(1), alu(2), alu(3), alu(4)}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	want := float64(r.Cycles) * 1 / float64(r.Insts)
	if r.CPI != want {
		t.Errorf("CPI = %g, want cycles*cores/insts = %g", r.CPI, want)
	}
	if r.IPC != 1/r.CPI {
		t.Errorf("IPC = %g", r.IPC)
	}
}

func TestConfigMismatchRejected(t *testing.T) {
	k := kernel(1, []trace.Rec{alu(1)})
	c := cfg1(1)
	k.LineBytes = 64
	if _, err := Simulate(k, c, RR); err == nil {
		t.Error("line mismatch accepted")
	}
	k.LineBytes = 128
	c.WarpsPerCore = 1
	k.WarpsPerBlock = 2 // warps per core not a multiple
	if _, err := Simulate(k, c, RR); err == nil {
		t.Error("residency mismatch accepted")
	}
}

func TestPredicatedOffMemIssuesOneCycle(t *testing.T) {
	// A memory record with no lines (all lanes predicated off) must cost
	// one issue slot, nothing more.
	r0 := trace.Rec{PC: 2, Op: isa.OpLdG, Dst: 1, Mask: 0}
	for i := range r0.Srcs {
		r0.Srcs[i] = isa.RegNone
	}
	recs := []trace.Rec{r0, alu(2, 1)}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	// Load "completes" at L1 latency even with no requests.
	if r.Cycles > 30 {
		t.Errorf("cycles = %d for predicated-off load", r.Cycles)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	var warps [][]trace.Rec
	for i := 0; i < 6; i++ {
		warps = append(warps, []trace.Rec{
			load(1, uint64(i)*0x1000), fp(2, 1), store(uint64(i) * 0x2000), alu(3, 2),
		})
	}
	k := kernel(2, warps...)
	c := config.Baseline()
	c.Cores = 3
	c.WarpsPerCore = 2
	a := simulate(t, k, c, GTO)
	b := simulate(t, k, c, GTO)
	if a.Cycles != b.Cycles || a.CPI != b.CPI {
		t.Errorf("nondeterministic: %d/%g vs %d/%g", a.Cycles, a.CPI, b.Cycles, b.CPI)
	}
}

func sfu(dst isa.Reg, srcs ...isa.Reg) trace.Rec {
	r := alu(dst, srcs...)
	r.PC, r.Op = 5, isa.OpFSqrt
	return r
}

func TestSFUContentionExtension(t *testing.T) {
	// Two warps issuing independent SFU ops back to back: unconstrained,
	// they dual-issue over 8 cycles; with one SFU lane (service 32
	// cycles per warp op) the unit serializes them.
	prog := testProg()
	prog.Instrs[5] = isa.Instr{Op: isa.OpFSqrt}
	mk := func() []trace.Rec {
		return []trace.Rec{sfu(1), sfu(2), sfu(3), sfu(4)}
	}
	k := kernel(2, mk(), mk())
	k.Prog = prog

	free := cfg1(2) // SFUPerCore = 0: unconstrained
	r1 := simulate(t, k, free, RR)
	if r1.Cycles != 8 {
		t.Errorf("unconstrained cycles = %d, want 8", r1.Cycles)
	}

	tight := cfg1(2).WithSFUs(1) // 32 cycles occupancy per warp SFU op
	r2 := simulate(t, k, tight, RR)
	// 8 SFU ops x 32 cycles of unit occupancy ≈ 256 cycles.
	if r2.Cycles < 200 {
		t.Errorf("constrained cycles = %d, want ~256 (SFU serialized)", r2.Cycles)
	}
}

func TestSFUExtensionOffByDefault(t *testing.T) {
	c := config.Baseline()
	if c.SFUPerCore != 0 || c.SFUServiceCycles() != 0 {
		t.Error("SFU extension must be disabled in the baseline (paper's balanced-design assumption)")
	}
	if got := c.WithSFUs(8).SFUServiceCycles(); got != 4 {
		t.Errorf("SFUServiceCycles = %g, want 32/8 = 4", got)
	}
}

func TestStallBreakdownAccounting(t *testing.T) {
	// A memory-latency-bound warp: the breakdown must attribute the idle
	// cycles to memory dependence and sum to 1 with the issue share.
	recs := []trace.Rec{load(1, 0x1000), alu(2, 1)}
	r := simulate(t, kernel(1, recs), cfg1(1), RR)
	bd := r.StallBreakdown()
	total := 0.0
	for _, v := range bd {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("breakdown sums to %g", total)
	}
	if bd["memory-dep"] < 0.9 {
		t.Errorf("memory-dep share = %g, want ~0.99 (420 of 421 cycles)", bd["memory-dep"])
	}
	// A compute chain attributes to compute-dep instead.
	recs2 := []trace.Rec{fp(1), fp(2, 1), fp(3, 2)}
	r2 := simulate(t, kernel(1, recs2), cfg1(1), RR)
	bd2 := r2.StallBreakdown()
	if bd2["compute-dep"] < 0.8 {
		t.Errorf("compute-dep share = %g", bd2["compute-dep"])
	}
	if bd2["memory-dep"] > 0.01 {
		t.Errorf("memory-dep misattributed: %g", bd2["memory-dep"])
	}
}

func TestStallBreakdownBarrier(t *testing.T) {
	w0 := []trace.Rec{fp(1), fp(2, 1), barrier()}
	w1 := []trace.Rec{barrier()}
	r := simulate(t, kernel(2, w0, w1), cfg1(2), RR)
	bd := r.StallBreakdown()
	if bd["barrier"] <= 0 && bd["compute-dep"] <= 0 {
		t.Errorf("no wait attributed while warp 1 waits at barrier: %v", bd)
	}
}

// TestSimulateRejectsMalformedInputs is the error-path table: every way a
// caller can hand Simulate an unusable (kernel, config) pair must come
// back as an error naming the problem — never a panic, never a NaN CPI.
func TestSimulateRejectsMalformedInputs(t *testing.T) {
	valid := func() *trace.Kernel {
		return kernel(1, []trace.Rec{alu(1), alu(2, 1)})
	}
	cases := []struct {
		name string
		k    func() *trace.Kernel
		cfg  func() config.Config
		want string // substring of the error
	}{
		{
			name: "nil kernel",
			k:    func() *trace.Kernel { return nil },
			cfg:  config.Baseline,
			want: "nil kernel",
		},
		{
			name: "no warp traces",
			k: func() *trace.Kernel {
				k := valid()
				k.Warps = nil
				return k
			},
			cfg:  config.Baseline,
			want: "no warps",
		},
		{
			name: "zero warps per block",
			k: func() *trace.Kernel {
				k := valid()
				k.WarpsPerBlock = 0
				return k
			},
			cfg:  config.Baseline,
			want: "no warps",
		},
		{
			name: "line-bytes mismatch",
			k: func() *trace.Kernel {
				k := valid()
				k.LineBytes = 64
				return k
			},
			cfg:  config.Baseline,
			want: "64-byte lines",
		},
		{
			name: "nan bandwidth config",
			k:    valid,
			cfg: func() config.Config {
				c := config.Baseline()
				c.DRAMBandwidthGBps = math.NaN()
				return c
			},
			want: "DRAMBandwidthGBps",
		},
		{
			name: "nan clock config",
			k:    valid,
			cfg: func() config.Config {
				c := config.Baseline()
				c.ClockGHz = math.NaN()
				return c
			},
			want: "ClockGHz",
		},
		{
			name: "residency not a block multiple",
			k: func() *trace.Kernel {
				k := kernel(3, []trace.Rec{alu(1)}, []trace.Rec{alu(1)}, []trace.Rec{alu(1)})
				return k
			},
			cfg:  config.Baseline, // 32 warps/core, not divisible by 3
			want: "not a multiple",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Simulate(tc.k(), tc.cfg(), RR)
			if err == nil {
				t.Fatalf("accepted malformed input (CPI %v)", res.CPI)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
