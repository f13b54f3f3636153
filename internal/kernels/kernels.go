// Package kernels provides the benchmark kernels of the evaluation —
// synthetic reconstructions of the Rodinia 2.1, Parboil 2.5 and NVIDIA SDK
// kernels the paper evaluates (Section VI-A, 40 kernels). Each kernel is
// written in the internal ISA and reproduces the behavioural signature of
// its namesake: its memory coalescing pattern, cache locality, control
// divergence, compute mix, and read/write balance. See DESIGN.md for the
// substitution rationale.
//
// Kernels register themselves in a global registry; experiments look them
// up by name and trace them at a chosen grid scale.
package kernels

import (
	"fmt"
	"math/rand"
	"sort"

	"gpumech/internal/check"
	"gpumech/internal/emu"
	"gpumech/internal/isa"
	"gpumech/internal/memory"
	"gpumech/internal/trace"
)

// Divergence is a qualitative memory-divergence degree, used to pick
// kernel subsets in experiments.
type Divergence int

const (
	DivNone Divergence = iota // fully coalesced
	DivLow
	DivMedium
	DivHigh // up to SIMT-width requests per instruction
)

func (d Divergence) String() string {
	switch d {
	case DivNone:
		return "none"
	case DivLow:
		return "low"
	case DivMedium:
		return "medium"
	case DivHigh:
		return "high"
	}
	return fmt.Sprintf("div(%d)", int(d))
}

// DefaultBlocks returns the default grid size for a kernel with the given
// warps per block: at least three times the system occupancy at the
// baseline residency (32 warps/core on 16 cores), matching the paper's
// methodology ("at least 3x system occupancy thread blocks"). The division
// rounds up so a warps-per-block value that does not divide the occupancy
// target still meets the 3x floor rather than silently undershooting it.
func DefaultBlocks(warpsPerBlock int) int {
	const cores, baseWarps, occupancyFactor = 16, 32, 3
	target := occupancyFactor * cores * baseWarps
	if warpsPerBlock <= 1 {
		return target
	}
	return (target + warpsPerBlock - 1) / warpsPerBlock
}

// Scale sets the grid size of a kernel build.
type Scale struct {
	// Blocks is the number of thread blocks to launch. Kernels size their
	// data sets to the grid.
	Blocks int
	// Seed drives the synthetic input data. The same seed produces the
	// same trace.
	Seed int64
}

// Launch is a ready-to-emulate kernel instance.
type Launch struct {
	Prog            *isa.Program
	Blocks          int
	ThreadsPerBlock int
	SharedBytes     int
	Mem             *memory.Memory

	// Check validates the kernel's output in memory against a host
	// (plain Go) reference computation. Nil when the kernel has no
	// natural output check.
	Check func(m *memory.Memory) error
}

// Info describes a registered kernel.
type Info struct {
	Name          string
	Suite         string // "rodinia", "parboil", "sdk"
	Desc          string
	ControlDiv    bool // control-divergent warps (Figure 7 subset)
	MemDiv        Divergence
	WriteHeavy    bool // divergent write traffic dominates (kmeans/sad class)
	WarpsPerBlock int

	build func(s Scale) (*Launch, error)
}

// Build constructs a launch at the given scale.
func (k *Info) Build(s Scale) (*Launch, error) {
	if s.Blocks <= 0 {
		return nil, fmt.Errorf("kernels: %s: Blocks must be positive, got %d", k.Name, s.Blocks)
	}
	l, err := k.build(s)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	return l, nil
}

// Trace builds the kernel and runs the functional emulator, returning the
// per-warp trace.
func (k *Info) Trace(s Scale, lineBytes int) (*trace.Kernel, error) {
	l, err := k.EmuLaunch(s, lineBytes)
	if err != nil {
		return nil, err
	}
	return emu.Run(l)
}

// EmuLaunch builds the kernel at the given scale and returns the launch
// Trace emulates, for callers that set the emulator's own options
// (Workers, Stats) or read the final memory.
func (k *Info) EmuLaunch(s Scale, lineBytes int) (emu.Launch, error) {
	l, err := k.Build(s)
	if err != nil {
		return emu.Launch{}, err
	}
	return emu.Launch{
		Prog:            l.Prog,
		Blocks:          l.Blocks,
		ThreadsPerBlock: l.ThreadsPerBlock,
		SharedBytes:     l.SharedBytes,
		Mem:             l.Mem,
		LineBytes:       lineBytes,
	}, nil
}

// Verify builds the kernel at the given scale and runs the static
// checker (internal/check) over the program with the launch geometry.
// All registered kernels must verify with zero error-severity findings;
// TestVerifyAllKernels and the CI lint job pin that invariant.
func (k *Info) Verify(s Scale) (check.Findings, error) {
	l, err := k.Build(s)
	if err != nil {
		return nil, err
	}
	return check.Verify(l.Prog, check.Options{Launch: &check.LaunchInfo{
		Blocks:          l.Blocks,
		ThreadsPerBlock: l.ThreadsPerBlock,
		SharedBytes:     l.SharedBytes,
	}}), nil
}

// VerifyAll verifies every named kernel at the given scale and returns
// the combined findings. An empty names slice verifies the whole
// registry. The error is non-nil only when a kernel fails to build.
func VerifyAll(names []string, s Scale) (check.Findings, error) {
	if len(names) == 0 {
		names = Names()
	}
	var all check.Findings
	for _, name := range names {
		k, err := Get(name)
		if err != nil {
			return all, err
		}
		fs, err := k.Verify(s)
		if err != nil {
			return all, fmt.Errorf("kernels: %s: %w", name, err)
		}
		all = append(all, fs...)
	}
	all.Sort()
	return all, nil
}

var registry = map[string]*Info{}

func register(k *Info) *Info {
	if k.Name == "" || k.build == nil {
		panic("kernels: invalid registration")
	}
	if _, dup := registry[k.Name]; dup {
		panic("kernels: duplicate kernel " + k.Name)
	}
	if k.WarpsPerBlock == 0 {
		k.WarpsPerBlock = 4
	}
	registry[k.Name] = k
	return k
}

// Get returns the kernel registered under name.
func Get(name string) (*Info, error) {
	k, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q (have %d kernels; see Names)", name, len(registry))
	}
	return k, nil
}

// Names returns all registered kernel names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PaperNames returns the names of the paper's 40-kernel evaluation set
// (the rodinia, parboil and sdk suites), excluding the "micro" stressors
// and the "extra" suite.
func PaperNames() []string {
	var out []string
	for _, n := range Names() {
		switch registry[n].Suite {
		case "rodinia", "parboil", "sdk":
			out = append(out, n)
		}
	}
	return out
}

// All returns all registered kernels sorted by name.
func All() []*Info {
	out := make([]*Info, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// ControlDivergent returns the kernels flagged as control-divergent
// (the Figure 7 population).
func ControlDivergent() []*Info {
	var out []*Info
	for _, k := range All() {
		if k.ControlDiv {
			out = append(out, k)
		}
	}
	return out
}

// ---- shared construction helpers ------------------------------------------

// Array bases: each logical array lives in its own 16 MiB region so
// kernels never alias accidentally.
func arrayBase(i int) uint64 { return uint64(i+1) << 24 }

const f32 = isa.MemF32
const i32 = isa.MemI32

// randF32 fills n float32 values in [lo, hi) at base.
func randF32(m *memory.Memory, rng *rand.Rand, base uint64, n int, lo, hi float32) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = lo + rng.Float32()*(hi-lo)
	}
	m.SetF32Slice(base, vals)
	return vals
}

// randI32 fills n int32 values in [0, mod) at base.
func randI32(m *memory.Memory, rng *rand.Rand, base uint64, n int, mod int32) []int32 {
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = rng.Int31n(mod)
	}
	m.SetI32Slice(base, vals)
	return vals
}

// addrOf converts a float32/int32 element index register into a byte
// address: dst = base + 4*idx.
func addrOf(b *isa.Builder, base uint64, idx isa.Reg) isa.Reg {
	dst := b.Reg()
	baseReg := b.ImmReg(int64(base))
	off := b.Reg()
	b.Shl(off, idx, 2)
	b.IAdd(dst, baseReg, off)
	return dst
}

// checkF32 compares n float32 values at base against want with relative
// tolerance.
func checkF32(m *memory.Memory, base uint64, want []float32, tol float64, what string) error {
	for i, w := range want {
		got := m.F32(base + uint64(4*i))
		diff := float64(got - w)
		if diff < 0 {
			diff = -diff
		}
		mag := float64(w)
		if mag < 0 {
			mag = -mag
		}
		if diff > tol*(1+mag) {
			return fmt.Errorf("%s[%d] = %g, want %g", what, i, got, w)
		}
	}
	return nil
}

// checkI32 compares n int32 values at base against want exactly.
func checkI32(m *memory.Memory, base uint64, want []int32, what string) error {
	for i, w := range want {
		if got := m.I32(base + uint64(4*i)); got != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}
