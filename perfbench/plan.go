package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"gpumech"
)

// Workload names, as BENCHMARK.json lists them.
const (
	sweepWarm      = "sweep_warm"
	firstContact   = "first_contact"
	serveStore     = "serve_store"
	validateOracle = "validate_oracle"
)

var workloadNames = []string{sweepWarm, firstContact, serveStore, validateOracle}

// share is one kernel's number of ops in every plan block. The shares
// fix the mix, so each kernel's share of the ops is the same on every
// seed; the seed only orders the block and picks the config points.
type share struct {
	Kernel string
	Ops    int
}

// spec is the fixed shape of one workload.
type spec struct {
	Name    string
	Mix     []share
	Grids   []int // the grids of its (kernel, grid) keys; nil: default grids
	Clients int   // closed-loop callers
}

// The mixes are sized so that, with kernels ordered by their latency
// plateau, p50 and p90 each fall inside one kernel's plateau, well away
// from where two plateaus meet, where a percentile can jump between them
// from run to run. The traced run prints where they fall ("placement").
// Plans of distinct points (validate_oracle, serve_store) list an odd
// number of them, with 0.9 of it ending in .5, so that over whole blocks
// each percentile rank sits in the middle of one point's copies.
var specs = map[string]spec{
	// Memory-divergent transpose_naive, barrier-phased hotspot,
	// compute-bound stencil and control-divergent bfs. Warm plateaus
	// measured at about 3, 7, 10 and 29 ms: p50 falls in hotspot's
	// (ranks 30-70%), p90 in bfs's (80-100%).
	sweepWarm: {Name: sweepWarm, Clients: 1, Mix: []share{
		{"sdk_transpose_naive", 3},
		{"rodinia_hotspot", 4},
		{"parboil_stencil", 1},
		{"rodinia_bfs", 2},
	}},
	// Kernels whose cold cost does not depend on the input seed, so a
	// new trace identity per op costs the same on every seed. At 128
	// blocks their cold plateaus measured about 11, 26 and 49 ms: p50
	// falls in hotspot's, p90 in scan's.
	firstContact: {Name: firstContact, Clients: 1, Grids: []int{128}, Mix: []share{
		{"sdk_transpose_naive", 3},
		{"rodinia_hotspot", 4},
		{"sdk_scan", 3},
	}},
	// 5 kernels x 3 grids = 15 (kernel, grid) keys, 3 configurations
	// each: 45 distinct requests.
	serveStore: {Name: serveStore, Clients: 2, Grids: []int{48, 96, 128}, Mix: []share{
		{"rodinia_hotspot", 1},
		{"sdk_convolution_row", 1},
		{"sdk_reduction", 1},
		{"rodinia_cfd_compute_flux", 1},
		{"rodinia_srad2", 1},
	}},
	// Subset of the paper's 40 kernels whose oracle runs in tens of
	// milliseconds at the default grid (kmeans and spmv take seconds);
	// 7 configurations each: 35 distinct points.
	validateOracle: {Name: validateOracle, Clients: 1, Mix: []share{
		{"rodinia_hotspot", 1},
		{"sdk_convolution_row", 1},
		{"sdk_reduction", 1},
		{"parboil_stencil", 1},
		{"rodinia_gaussian_fan2", 1},
	}},
}

// point is one op's input.
type point struct {
	ID        int // index among the plan's distinct points; -1 if unlisted
	Kernel    string
	Blocks    int   // 0: the kernel's default grid
	TraceSeed int64 // synthetic-input seed of the trace identity
	Warps     int
	MSHRs     int
	BW        float64
	Policy    gpumech.Policy
}

// config returns the hardware configuration of p.
func (p point) config() gpumech.Config {
	return gpumech.DefaultConfig().WithWarps(p.Warps).WithMSHRs(p.MSHRs).WithBandwidth(p.BW)
}

// label names p in the placement report: its kernel, plus its
// configuration when the plan repeats distinct points.
func (p point) label() string {
	if p.ID < 0 {
		return p.Kernel
	}
	return fmt.Sprintf("%s/w%d/m%d/bw%g/%s/b%d", p.Kernel, p.Warps, p.MSHRs, p.BW, p.Policy, p.Blocks)
}

// body is p as a POST /v1/evaluate request.
func (p point) body() []byte {
	pol := "rr"
	if p.Policy == gpumech.GTO {
		pol = "gto"
	}
	b, _ := json.Marshal(map[string]any{
		"kernel": p.Kernel, "blocks": p.Blocks, "policy": pol, "level": "full",
		"warps": p.Warps, "mshrs": p.MSHRs, "bw": p.BW,
	})
	return b
}

// basePoint is the paper's Table I configuration under round-robin
// scheduling: the point the set-up and the accuracy anchors use.
func basePoint(kernel string) point {
	c := gpumech.DefaultConfig()
	return point{ID: -1, Kernel: kernel, TraceSeed: 1, Warps: c.WarpsPerCore,
		MSHRs: c.MSHREntries, BW: c.DRAMBandwidthGBps, Policy: gpumech.RR}
}

// The configuration space the sweeps draw from: Figure 13's warp range
// and the MSHR and bandwidth ranges of the paper's sensitivity studies.
var (
	warpChoices = []int{8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48}
	mshrChoices = []int{8, 16, 24, 32, 48, 64}
	bwChoices   = []float64{96, 128, 192, 256, 384}
)

// plan is a workload's op sequence: an endless run of blocks, each a
// pure function of (workload, seed, block index). A run stops at a
// block boundary, so every run executes whole blocks of the same mix.
type plan struct {
	spec  spec
	seed  int64
	mix   []share // sorted by kernel, so the plan ignores the list order
	fixed []point // validate_oracle and serve_store: the distinct points
}

func newPlan(s spec, seed int64) *plan {
	mix := append([]share(nil), s.Mix...)
	sort.Slice(mix, func(i, j int) bool { return mix[i].Kernel < mix[j].Kernel })
	p := &plan{spec: s, seed: seed, mix: mix}
	switch s.Name {
	case validateOracle:
		// A fixed set, the same on every seed, so model error is a
		// property of the code alone: Figure 13's warp range under both
		// policies, plus one MSHR-bound point.
		for _, sh := range mix {
			for _, w := range []int{16, 32, 48} {
				for _, pol := range []gpumech.Policy{gpumech.RR, gpumech.GTO} {
					pt := basePoint(sh.Kernel)
					pt.ID, pt.Warps, pt.Policy = len(p.fixed), w, pol
					p.fixed = append(p.fixed, pt)
				}
			}
			pt := basePoint(sh.Kernel)
			pt.ID, pt.MSHRs = len(p.fixed), 8
			p.fixed = append(p.fixed, pt)
		}
	case serveStore:
		// Three configurations per (kernel, grid) key, drawn from the seed.
		rng := rand.New(rand.NewSource(mixSeed(seed, -1)))
		for _, sh := range mix {
			for _, g := range s.Grids {
				for v := 0; v < 3; v++ {
					pt := drawPoint(rng, sh.Kernel)
					pt.ID, pt.Blocks = len(p.fixed), g
					p.fixed = append(p.fixed, pt)
				}
			}
		}
	}
	return p
}

// blockLen is the number of ops in one block.
func (p *plan) blockLen() int {
	if p.fixed != nil {
		return len(p.fixed)
	}
	n := 0
	for _, sh := range p.mix {
		n += sh.Ops
	}
	return n
}

// block returns the ops of block b.
func (p *plan) block(b int) []point {
	rng := rand.New(rand.NewSource(mixSeed(p.seed, int64(b))))
	if p.fixed != nil {
		out := append([]point(nil), p.fixed...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	var out []point
	for _, sh := range p.mix {
		for i := 0; i < sh.Ops; i++ {
			out = append(out, basePoint(sh.Kernel))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		pt := drawPoint(rng, out[i].Kernel)
		if p.spec.Name == firstContact {
			pt.Blocks = p.spec.Grids[0]
			// A trace identity no other op of the run uses; set-up's
			// warm-up identities are negative.
			pt.TraceSeed = p.seed<<24 + int64(b*len(out)+i) + 1
		}
		out[i] = pt
	}
	return out
}

// forOps calls fn on the plan's first n ops in order.
func (p *plan) forOps(n int, fn func(i int, pt point)) {
	bl := p.blockLen()
	for b := 0; b*bl < n; b++ {
		for j, pt := range p.block(b) {
			if i := b*bl + j; i < n {
				fn(i, pt)
			}
		}
	}
}

// kernels returns the workload's kernels in name order.
func (p *plan) kernels() []string {
	out := make([]string, len(p.mix))
	for i, sh := range p.mix {
		out[i] = sh.Kernel
	}
	return out
}

func drawPoint(rng *rand.Rand, kernel string) point {
	pt := basePoint(kernel)
	pt.Warps = warpChoices[rng.Intn(len(warpChoices))]
	pt.MSHRs = mshrChoices[rng.Intn(len(mshrChoices))]
	pt.BW = bwChoices[rng.Intn(len(bwChoices))]
	if rng.Intn(2) == 1 {
		pt.Policy = gpumech.GTO
	}
	return pt
}

// mixSeed derives an independent generator seed for (seed, stream).
func mixSeed(seed, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x)
}

func specFor(name string) (spec, error) {
	s, ok := specs[name]
	if !ok {
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return s, nil
}
