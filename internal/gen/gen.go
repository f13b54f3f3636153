// Package gen is the seeded random kernel generator behind the
// differential-testing engine (ROADMAP item 4b): it produces arbitrary —
// but always statically safe — ISA programs for hunting accuracy cliffs
// between the analytical model and the cycle-level timing simulator.
//
// Every generated program is constrained by construction to pass
// check.Verify with zero error-severity findings:
//
//   - control flow uses only the structured builder helpers (if/else with
//     reconvergence at the immediate post-dominator, counted loops), so
//     the SIMT stack always balances;
//   - every register written inside divergent control flow is defined at
//     the top level first, so no path reads an undefined or maybe-zero
//     register;
//   - barriers appear only at the uniform top level, between phases, so
//     every live warp of a block reaches them;
//   - shared-memory indices are masked with AndI before scaling, so the
//     bounds pass can prove every access lies inside the declared
//     segment, and global addresses are base-plus-nonnegative by
//     construction.
//
// Generate additionally runs the checker as a belt-and-braces gate and
// refuses to return a program with any error finding, so downstream
// consumers (the accuracy harness, fuzz targets) can treat generated
// kernels exactly like the hand-written benchmark set.
package gen

import (
	"fmt"
	"math/rand"

	"gpumech/internal/check"
	"gpumech/internal/emu"
	"gpumech/internal/isa"
	"gpumech/internal/memory"
	"gpumech/internal/trace"
)

// Template selects the control-flow skeleton of a generated kernel.
type Template int

const (
	// StraightLine is a flat run of instructions with no control flow.
	StraightLine Template = iota
	// IfElse wraps part of the body in a divergent if/else (or a bare
	// if), reconverging afterwards.
	IfElse
	// Loop repeats the body under one or two counted (uniform) loops.
	Loop
	// BarrierPhases alternates compute/shared-store phases separated by
	// block-wide barriers — the tiled-kernel shape.
	BarrierPhases
	numTemplates
)

func (t Template) String() string {
	switch t {
	case StraightLine:
		return "straight-line"
	case IfElse:
		return "if-else"
	case Loop:
		return "loop"
	case BarrierPhases:
		return "barrier-phases"
	}
	return fmt.Sprintf("template(%d)", int(t))
}

// MemPattern selects the global-memory addressing style.
type MemPattern int

const (
	// Coalesced addresses base + 4*gid: one line per warp access.
	Coalesced MemPattern = iota
	// Strided addresses base + 4*stride*gid: several lines per access.
	Strided
	// Random addresses a hashed, masked index: up to one line per lane.
	Random
	// SharedTiled mixes coalesced global traffic with masked shared-
	// memory tile accesses.
	SharedTiled
	numPatterns
)

func (p MemPattern) String() string {
	switch p {
	case Coalesced:
		return "coalesced"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case SharedTiled:
		return "shared-tiled"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Distinct global segments, mirroring the kernels package convention of
// widely separated array bases.
const (
	inBase  = 1 << 24
	outBase = 2 << 24
	// randomMask bounds the hashed-index footprint: 64Ki elements.
	randomMask = 1<<16 - 1
	// initElems is how many input floats Launch seeds into memory.
	initElems = 1024
)

// Kernel is one generated kernel instance: a verified program plus the
// launch geometry it was generated for.
type Kernel struct {
	Name            string
	Prog            *isa.Program
	Blocks          int
	ThreadsPerBlock int
	SharedBytes     int

	Template Template
	Pattern  MemPattern

	Seed  int64
	Index int64
}

// mix folds (seed, index) into one 64-bit stream selector with a
// splitmix64-style finalizer, so adjacent indices produce unrelated
// streams.
func mix(seed, index int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(index) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Generate builds the index-th kernel of the seed's stream. The same
// (seed, index) pair always yields the identical kernel. The returned
// kernel's program has been verified against its launch geometry: any
// error-severity finding fails Generate (which would indicate a
// generator bug — the templates are constructed to be checker-clean).
func Generate(seed, index int64) (*Kernel, error) {
	rng := rand.New(rand.NewSource(mix(seed, index)))

	// The grid fills the baseline machine to three times its occupancy
	// (the paper's methodology, kernels.DefaultBlocks), with a small
	// jitter so block/core alignment varies across the stream. Anything
	// smaller under-occupies the cores and the differential comparison
	// measures the occupancy artifact instead of the model.
	wpb := []int{1, 2, 4}[rng.Intn(3)]
	targetWarps := 3*16*32 + 32*rng.Intn(9)
	k := &Kernel{
		Name:            fmt.Sprintf("gen/s%d/i%d", seed, index),
		Blocks:          (targetWarps + wpb - 1) / wpb,
		ThreadsPerBlock: wpb * 32,
		Template:        Template(rng.Intn(int(numTemplates))),
		Pattern:         MemPattern(rng.Intn(int(numPatterns))),
		Seed:            seed,
		Index:           index,
	}

	g := newEmitter(k, rng)
	g.prologue()
	switch k.Template {
	case StraightLine:
		g.ops(20 + rng.Intn(30))
	case IfElse:
		g.ops(4 + rng.Intn(8))
		g.branch()
		g.ops(4 + rng.Intn(8))
	case Loop:
		g.loop()
		if rng.Intn(2) == 0 {
			g.loop()
		}
	case BarrierPhases:
		g.barrierPhases()
	}
	g.epilogue()

	prog, err := g.b.Build()
	if err != nil {
		return nil, fmt.Errorf("gen: %s: %w", k.Name, err)
	}
	k.Prog = prog

	fs := k.Verify()
	if verr := fs.Err(); verr != nil {
		return nil, fmt.Errorf("gen: %s: generated program failed verification: %w", k.Name, verr)
	}
	return k, nil
}

// Verify runs the static checker against the kernel's launch geometry.
func (k *Kernel) Verify() check.Findings {
	return check.Verify(k.Prog, check.Options{Launch: &check.LaunchInfo{
		Blocks:          k.Blocks,
		ThreadsPerBlock: k.ThreadsPerBlock,
		SharedBytes:     k.SharedBytes,
	}})
}

// Launch assembles the emulator launch for the kernel, with the input
// segment seeded from the kernel's own deterministic stream.
func (k *Kernel) Launch(lineBytes int) emu.Launch {
	mem := memory.New()
	data := rand.New(rand.NewSource(mix(k.Seed, k.Index) + 1))
	for i := 0; i < initElems; i++ {
		mem.SetF32(uint64(inBase+4*i), data.Float32()*4-2)
	}
	return emu.Launch{
		Prog:            k.Prog,
		Blocks:          k.Blocks,
		ThreadsPerBlock: k.ThreadsPerBlock,
		SharedBytes:     k.SharedBytes,
		Mem:             mem,
		LineBytes:       lineBytes,
	}
}

// Trace emulates the kernel and returns its trace.
func (k *Kernel) Trace(lineBytes int) (*trace.Kernel, error) {
	return emu.Run(k.Launch(lineBytes))
}

// WarpsPerBlock returns the kernel's warps per block (warp size 32).
func (k *Kernel) WarpsPerBlock() int { return k.ThreadsPerBlock / 32 }

// emitter composes a program from value pools. The invariant that keeps
// every template checker-clean: all pool registers are defined
// unconditionally in the prologue, and body instructions only ever write
// pool registers — so a write under divergent control flow can never
// introduce a maybe-undefined read.
type emitter struct {
	k   *Kernel
	b   *isa.Builder
	rng *rand.Rand

	ints   []isa.Reg // integer value pool, defined in the prologue
	floats []isa.Reg // float value pool, defined in the prologue
	consts []isa.Reg // immutable small-integer constants (ISetp operands)

	addrG  isa.Reg // global address for the chosen pattern (read side)
	addrO  isa.Reg // coalesced output address (write side)
	saddrA isa.Reg // masked shared-tile address, or RegNone
	saddrB isa.Reg // shifted masked shared-tile address, or RegNone
}

func newEmitter(k *Kernel, rng *rand.Rand) *emitter {
	return &emitter{k: k, b: isa.NewBuilder(k.Name), rng: rng,
		addrG: isa.RegNone, addrO: isa.RegNone, saddrA: isa.RegNone, saddrB: isa.RegNone}
}

func (g *emitter) pick(pool []isa.Reg) isa.Reg { return pool[g.rng.Intn(len(pool))] }

// prologue defines every pool register and precomputes the pattern's
// address registers. Nothing here is under control flow.
func (g *emitter) prologue() {
	b := g.b
	gid := b.GlobalID()
	tid := b.Tid()

	// Global read address per pattern. Every expression is provably
	// non-negative: gid/tid are non-negative S2R values, the scales are
	// positive, and Random masks through AndI before adding the base.
	t := b.Reg()
	switch g.k.Pattern {
	case Coalesced, SharedTiled:
		b.Shl(t, gid, 2)
	case Strided:
		stride := []int64{2, 4, 8, 16, 32}[g.rng.Intn(5)]
		s := b.Reg()
		b.IMulI(s, gid, stride)
		b.Shl(t, s, 2)
	case Random:
		h := b.Reg()
		b.IMulI(h, gid, 2654435761)
		b.Shr(h, h, 8)
		b.AndI(h, h, randomMask)
		b.Shl(t, h, 2)
	}
	g.addrG = b.Reg()
	b.IAddI(g.addrG, t, inBase)

	// Coalesced output address: out[gid].
	to := b.Reg()
	b.Shl(to, gid, 2)
	g.addrO = b.Reg()
	b.IAddI(g.addrO, to, outBase)

	// Shared tile, when the pattern or template needs one: indices are
	// masked to the tile so the bounds pass can prove them in-segment.
	if g.k.Pattern == SharedTiled || g.k.Template == BarrierPhases {
		tile := int64(64 << g.rng.Intn(3)) // 64, 128 or 256 floats
		g.k.SharedBytes = int(4 * tile)
		ia := b.Reg()
		b.AndI(ia, tid, tile-1)
		g.saddrA = b.Reg()
		b.Shl(g.saddrA, ia, 2)
		sh := b.Reg()
		b.IAddI(sh, tid, 1)
		ib := b.Reg()
		b.AndI(ib, sh, tile-1)
		g.saddrB = b.Reg()
		b.Shl(g.saddrB, ib, 2)
	}

	// Small-integer constants for compare operands.
	for _, c := range []int64{1, 3, 7} {
		g.consts = append(g.consts, b.ImmReg(c))
	}

	// Integer pool: lane-varying keys plus plain constants.
	for i := 0; i < 3; i++ {
		r := b.Reg()
		b.AndI(r, []isa.Reg{tid, gid}[i%2], int64(3+4*i))
		g.ints = append(g.ints, r)
	}
	for i := 0; i < 3; i++ {
		g.ints = append(g.ints, b.ImmReg(int64(g.rng.Intn(64)+1)))
	}

	// Float pool: constants plus loaded input values.
	for i := 0; i < 3; i++ {
		g.floats = append(g.floats, b.FImmReg(g.rng.Float64()*4-2))
	}
	for i := 0; i < 3; i++ {
		r := b.Reg()
		b.LdG(r, g.addrG, int64(4*i), isa.MemF32)
		g.floats = append(g.floats, r)
	}
}

// ops emits n random body instructions. Destinations are always existing
// pool registers, so ops is safe to call inside divergent control flow.
func (g *emitter) ops(n int) {
	for i := 0; i < n; i++ {
		switch w := g.rng.Intn(100); {
		case w < 30:
			g.intOp()
		case w < 62:
			g.floatOp()
		case w < 72:
			g.sfuOp()
		case w < 87:
			g.b.LdG(g.pick(g.floats), g.addrG, int64(4*g.rng.Intn(16)), isa.MemF32)
		case w < 95:
			g.b.StG(g.addrO, int64(4*g.rng.Intn(8)), g.pick(g.floats), isa.MemF32)
		default:
			if g.saddrA != isa.RegNone {
				g.sharedOp()
			} else {
				g.floatOp()
			}
		}
	}
}

func (g *emitter) intOp() {
	b, d := g.b, g.pick(g.ints)
	a, s := g.pick(g.ints), g.pick(g.ints)
	switch g.rng.Intn(8) {
	case 0:
		b.IAdd(d, a, s)
	case 1:
		b.ISub(d, a, s)
	case 2:
		b.IMul(d, a, s)
	case 3:
		b.IMin(d, a, s)
	case 4:
		b.IMax(d, a, s)
	case 5:
		b.Xor(d, a, s)
	case 6:
		b.AndI(d, a, int64(g.rng.Intn(255)))
	case 7:
		b.IMad(d, a, s, g.pick(g.ints))
	}
}

func (g *emitter) floatOp() {
	b, d := g.b, g.pick(g.floats)
	a, s := g.pick(g.floats), g.pick(g.floats)
	switch g.rng.Intn(8) {
	case 0:
		b.FAdd(d, a, s)
	case 1:
		b.FSub(d, a, s)
	case 2:
		b.FMul(d, a, s)
	case 3:
		b.FMin(d, a, s)
	case 4:
		b.FMax(d, a, s)
	case 5:
		b.FAbs(d, a)
	case 6:
		b.FFma(d, a, s, g.pick(g.floats))
	case 7:
		b.I2F(d, g.pick(g.ints))
	}
}

func (g *emitter) sfuOp() {
	b, d, a := g.b, g.pick(g.floats), g.pick(g.floats)
	switch g.rng.Intn(5) {
	case 0:
		b.FSqrt(d, a)
	case 1:
		b.FRcp(d, a)
	case 2:
		b.FExp(d, a)
	case 3:
		b.FSin(d, a)
	case 4:
		b.FDiv(d, a, g.pick(g.floats))
	}
}

func (g *emitter) sharedOp() {
	b := g.b
	if g.rng.Intn(2) == 0 {
		b.StS(g.saddrA, 0, g.pick(g.floats), isa.MemF32)
	} else {
		b.LdS(g.pick(g.floats), g.pick([]isa.Reg{g.saddrA, g.saddrB}), 0, isa.MemF32)
	}
}

// branch emits a divergent if/else (or a bare if) whose condition varies
// per lane through the pool's masked tid/gid keys.
func (g *emitter) branch() {
	b := g.b
	p := b.Pred()
	cmp := []isa.Cmp{isa.CmpLT, isa.CmpGE, isa.CmpEQ, isa.CmpNE}[g.rng.Intn(4)]
	b.ISetp(p, cmp, g.pick(g.ints), g.pick(g.consts))
	if g.rng.Intn(3) == 0 {
		b.If(p, func() { g.ops(4 + g.rng.Intn(8)) })
	} else {
		b.IfElse(p,
			func() { g.ops(4 + g.rng.Intn(8)) },
			func() { g.ops(4 + g.rng.Intn(8)) })
	}
}

// loop emits a counted loop with a uniform trip count; the body may
// itself contain a divergent branch.
func (g *emitter) loop() {
	b := g.b
	i := b.Reg()
	trips := int64(2 + g.rng.Intn(6))
	inner := g.rng.Intn(3) == 0
	b.ForImm(i, 0, trips, 1, func() {
		g.ops(3 + g.rng.Intn(8))
		if inner {
			g.branch()
		}
	})
}

// barrierPhases alternates compute phases with block-wide barriers; each
// phase stores into the shared tile and the next phase reads it back
// (the producer/consumer shape of tiled kernels). Barriers stay at the
// uniform top level, so every live warp reaches each one.
func (g *emitter) barrierPhases() {
	b := g.b
	phases := 2 + g.rng.Intn(2)
	for ph := 0; ph < phases; ph++ {
		g.ops(4 + g.rng.Intn(8))
		b.StS(g.saddrA, 0, g.pick(g.floats), isa.MemF32)
		b.Bar()
		b.LdS(g.pick(g.floats), g.saddrB, 0, isa.MemF32)
		if ph+1 < phases {
			b.Bar()
		}
	}
}

// epilogue stores one result per lane so the kernel's work is observable.
func (g *emitter) epilogue() {
	acc := g.pick(g.floats)
	g.b.FAdd(acc, acc, g.pick(g.floats))
	g.b.StG(g.addrO, 0, acc, isa.MemF32)
}
