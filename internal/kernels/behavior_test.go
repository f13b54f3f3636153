package kernels

import (
	"math"
	"slices"
	"testing"

	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// behaviorScale is large enough for the documented access patterns to
// reach their steady-state shapes.
var behaviorScale = Scale{Blocks: 64, Seed: 42}

func traceOf(t *testing.T, name string) *trace.Kernel {
	t.Helper()
	k, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := k.Trace(behaviorScale, 128)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// recsOf decodes w's records, each with its own copy of its lines.
func recsOf(tb testing.TB, w *trace.WarpTrace) []trace.Rec {
	tb.Helper()
	var recs []trace.Rec
	cur := w.Cursor()
	for cur.Next() {
		r := *cur.Rec()
		r.Lines = slices.Clone(r.Lines)
		recs = append(recs, r)
	}
	if err := cur.Err(); err != nil {
		tb.Fatal(err)
	}
	return recs
}

// stats over the first eight warps' global memory instructions.
func memShape(t *testing.T, tr *trace.Kernel) (loadReqsPerInst, storeReqsPerInst float64, loads, stores int) {
	var loadReqs, storeReqs int
	for _, w := range tr.Warps[:min(len(tr.Warps), 8)] {
		for _, r := range recsOf(t, w) {
			switch r.Op {
			case isa.OpLdG:
				loads++
				loadReqs += r.NumReqs()
			case isa.OpStG:
				stores++
				storeReqs += r.NumReqs()
			}
		}
	}
	if loads > 0 {
		loadReqsPerInst = float64(loadReqs) / float64(loads)
	}
	if stores > 0 {
		storeReqsPerInst = float64(storeReqs) / float64(stores)
	}
	return
}

func TestKmeansInvertSignature(t *testing.T) {
	// The paper's maximum-divergence kernel: divergent reads (one line per
	// point) and divergent padded writes, both near the SIMT width.
	tr := traceOf(t, "rodinia_kmeans_invert")
	ld, st, loads, stores := memShape(t, tr)
	if loads == 0 || stores == 0 {
		t.Fatal("kernel has no memory traffic")
	}
	if ld < 16 {
		t.Errorf("load divergence = %.1f reqs/inst, want near 32", ld)
	}
	if st < 16 {
		t.Errorf("store divergence = %.1f reqs/inst, want near 32 (the paper's divergent writes)", st)
	}
}

func TestTransposePairSignatures(t *testing.T) {
	// Naive transpose: coalesced loads, fully divergent stores. Shared
	// transpose: both coalesced.
	naive := traceOf(t, "sdk_transpose_naive")
	ld, st, _, _ := memShape(t, naive)
	if ld > 1.5 {
		t.Errorf("naive transpose loads diverged: %.1f reqs/inst", ld)
	}
	if st < 16 {
		t.Errorf("naive transpose stores = %.1f reqs/inst, want near 32", st)
	}
	shared := traceOf(t, "sdk_transpose_shared")
	ld2, st2, _, _ := memShape(t, shared)
	if ld2 > 1.5 || st2 > 1.5 {
		t.Errorf("shared transpose not coalesced: loads %.1f stores %.1f", ld2, st2)
	}
}

func TestCfdPairSignatures(t *testing.T) {
	// step_factor is the paper's fully coalesced kernel; compute_flux has
	// medium gather divergence ("up to 16 diverged requests").
	sf := traceOf(t, "rodinia_cfd_step_factor")
	ld, st, _, _ := memShape(t, sf)
	if ld > 1.1 || st > 1.1 {
		t.Errorf("step_factor not coalesced: loads %.2f stores %.2f", ld, st)
	}
	cf := traceOf(t, "rodinia_cfd_compute_flux")
	maxReqs := 0
	for _, r := range recsOf(t, cf.Warps[0]) {
		if r.Op == isa.OpLdG && r.NumReqs() > maxReqs {
			maxReqs = r.NumReqs()
		}
	}
	if maxReqs < 8 || maxReqs > 32 {
		t.Errorf("compute_flux max gather divergence = %d, want medium (8..32)", maxReqs)
	}
}

func TestSharedMemoryKernelsUseBarriers(t *testing.T) {
	for _, name := range []string{"parboil_sgemm", "sdk_reduction", "sdk_scan",
		"rodinia_hotspot", "rodinia_pathfinder", "sdk_transpose_shared", "rodinia_lud_diagonal"} {
		tr := traceOf(t, name)
		bars, smem := 0, 0
		for _, r := range recsOf(t, tr.Warps[0]) {
			switch r.Op {
			case isa.OpBar:
				bars++
			case isa.OpLdS, isa.OpStS:
				smem++
			}
		}
		if bars == 0 {
			t.Errorf("%s executed no barriers", name)
		}
		if smem == 0 {
			t.Errorf("%s executed no shared-memory accesses", name)
		}
	}
}

func TestComputeBoundKernelsAreComputeBound(t *testing.T) {
	for _, name := range []string{"sdk_blackscholes", "parboil_mriq", "rodinia_lavamd"} {
		tr := traceOf(t, name)
		mem, sfu, total := 0, 0, 0
		for _, r := range recsOf(t, tr.Warps[0]) {
			total++
			if r.Op.IsGlobal() {
				mem++
			}
			if r.Op.Class() == isa.ClassSFU {
				sfu++
			}
		}
		if frac := float64(mem) / float64(total); frac > 0.25 {
			t.Errorf("%s memory fraction %.2f, expected compute-bound", name, frac)
		}
		if sfu == 0 {
			t.Errorf("%s has no SFU instructions", name)
		}
	}
}

func TestPointerChaseIsSerialized(t *testing.T) {
	// Every chase load depends on the previous one: consecutive load
	// records must form a dependence chain through the same register.
	tr := traceOf(t, "micro_pointer_chase")
	w := tr.Warps[0]
	// Each load must transitively depend on the previous load (through
	// the address computation). Walk ancestors with a DepTracker.
	deps := trace.NewDepTracker(tr.Prog.NumRegs + tr.Prog.NumPreds)
	recs := recsOf(t, w)
	parents := make([][]int, len(recs))
	var buf []int
	for i := range recs {
		buf = deps.Sources(&recs[i], buf[:0])
		parents[i] = append([]int(nil), buf...)
		deps.Record(&recs[i], i)
	}
	dependsOn := func(from, target int) bool {
		seen := map[int]bool{}
		stack := []int{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == target {
				return true
			}
			if seen[n] || n < target {
				continue
			}
			seen[n] = true
			stack = append(stack, parents[n]...)
		}
		return false
	}
	var loadIdx []int
	for i := range recs {
		if recs[i].Op == isa.OpLdG {
			loadIdx = append(loadIdx, i)
		}
	}
	if len(loadIdx) != 24 {
		t.Fatalf("chase loads = %d, want 24 hops", len(loadIdx))
	}
	for h := 1; h < len(loadIdx); h++ {
		if !dependsOn(loadIdx[h], loadIdx[h-1]) {
			t.Fatalf("hop %d does not depend on hop %d", h, h-1)
		}
	}
}

func TestHeterogeneousKernelsHaveWarpVariance(t *testing.T) {
	// bfs and spmv are built with regional skew so warps differ — the
	// Figure 7 population. Verify the instruction-count spread is real.
	for _, name := range []string{"rodinia_bfs", "parboil_spmv"} {
		tr := traceOf(t, name)
		var counts []float64
		for _, w := range tr.Warps {
			counts = append(counts, float64(w.Insts()))
		}
		mean, variance := meanVar(counts)
		cv := math.Sqrt(variance) / mean
		if cv < 0.10 {
			t.Errorf("%s warp-length CV = %.3f, want heterogeneity (>0.10)", name, cv)
		}
	}
	// A homogeneous kernel for contrast.
	tr := traceOf(t, "sdk_vectoradd")
	var counts []float64
	for _, w := range tr.Warps {
		counts = append(counts, float64(w.Insts()))
	}
	mean, variance := meanVar(counts)
	if cv := math.Sqrt(variance) / mean; cv > 0.01 {
		t.Errorf("vectoradd warp-length CV = %.3f, want ~0", cv)
	}
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	return
}

func TestWriteHeavyFlagMatchesTraffic(t *testing.T) {
	// Kernels flagged WriteHeavy must issue at least as many store
	// requests as load requests that would reach DRAM.
	for _, k := range All() {
		if !k.WriteHeavy {
			continue
		}
		tr, err := k.Trace(behaviorScale, 128)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		var loadReqs, storeReqs int
		for _, r := range recsOf(t, tr.Warps[0]) {
			if r.Op == isa.OpLdG {
				loadReqs += r.NumReqs()
			}
			if r.Op == isa.OpStG {
				storeReqs += r.NumReqs()
			}
		}
		if storeReqs*2 < loadReqs {
			t.Errorf("%s flagged write-heavy but stores %d << loads %d", k.Name, storeReqs, loadReqs)
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	// Different seeds must produce different traces for data-dependent
	// kernels, and identical seeds identical traces.
	k, _ := Get("parboil_spmv")
	t1, err := k.Trace(Scale{Blocks: 8, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := k.Trace(Scale{Blocks: 8, Seed: 2}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if t1.TotalInsts() == t2.TotalInsts() {
		t.Log("warning: seeds produced equal instruction counts (possible but unlikely)")
	}
	t3, err := k.Trace(Scale{Blocks: 8, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if t1.TotalInsts() != t3.TotalInsts() {
		t.Error("same seed produced different traces")
	}
}

func TestGridScaling(t *testing.T) {
	// Doubling the grid doubles the warps and roughly doubles the work.
	k, _ := Get("rodinia_hotspot")
	small, err := k.Trace(Scale{Blocks: 8, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	big, err := k.Trace(Scale{Blocks: 16, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Warps) != 2*len(small.Warps) {
		t.Errorf("warps %d -> %d, want double", len(small.Warps), len(big.Warps))
	}
	ratio := float64(big.TotalInsts()) / float64(small.TotalInsts())
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("instruction ratio %.2f, want ~2", ratio)
	}
}

func TestPaperNamesExcludesMicro(t *testing.T) {
	names := PaperNames()
	if len(names) != 40 {
		t.Fatalf("paper set = %d, want 40", len(names))
	}
	for _, n := range names {
		k, _ := Get(n)
		if k.Suite == "micro" {
			t.Errorf("micro kernel %s in the paper set", n)
		}
	}
}

func TestMyocyteIsSerialChain(t *testing.T) {
	// The ODE step is one long dependence chain: the single-warp profile
	// must be stall-dominated (intervals of ~1 instruction).
	tr := traceOf(t, "extra_myocyte")
	w := tr.Warps[0]
	sfu := 0
	for _, r := range recsOf(t, w) {
		if r.Op.Class() == isa.ClassSFU {
			sfu++
		}
	}
	if sfu < 40 {
		t.Errorf("myocyte SFU chain = %d ops, want >= 2 per step", sfu)
	}
}

func TestBinomialDivergenceDecay(t *testing.T) {
	// Later wavefronts deactivate high lanes: some If bodies must execute
	// with partial masks, and barrier counts must match 2 per step + 1.
	tr := traceOf(t, "extra_binomial_options")
	w := tr.Warps[len(tr.Warps)-1] // the last warp of a block loses lanes first
	partial, bars := 0, 0
	for _, r := range recsOf(t, w) {
		if r.Op == isa.OpBar {
			bars++
		}
		if r.Op == isa.OpLdS && r.Mask != 0xFFFFFFFF && r.Mask != 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Error("no partially-masked shared loads: divergence decay missing")
	}
	if bars < 16 {
		t.Errorf("barriers = %d, want >= 16", bars)
	}
}

func TestExtraSuiteRegistered(t *testing.T) {
	n := 0
	for _, k := range All() {
		if k.Suite == "extra" {
			n++
		}
	}
	if n != 8 {
		t.Errorf("extra suite has %d kernels, want 8", n)
	}
}

func TestBfsQueueTwoLevelGather(t *testing.T) {
	tr := traceOf(t, "extra_bfs_queue")
	w := tr.Warps[0]
	var reqCounts []int
	for _, r := range recsOf(t, w) {
		if r.Op == isa.OpLdG {
			reqCounts = append(reqCounts, r.NumReqs())
		}
	}
	if len(reqCounts) < 3 {
		t.Fatal("too few loads")
	}
	// First load (queue read) coalesced; later gathers divergent.
	if reqCounts[0] > 2 {
		t.Errorf("queue read diverged: %d reqs", reqCounts[0])
	}
	maxR := 0
	for _, r := range reqCounts[1:] {
		if r > maxR {
			maxR = r
		}
	}
	if maxR < 8 {
		t.Errorf("gather divergence = %d, want high", maxR)
	}
}
