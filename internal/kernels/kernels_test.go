package kernels

import (
	"testing"

	"gpumech/internal/emu"
	"gpumech/internal/trace"
)

// testScale is a small grid adequate for functional verification.
var testScale = Scale{Blocks: 24, Seed: 42}

// TestAllKernelsEmulateAndVerify builds, emulates, and output-checks every
// registered kernel.
func TestAllKernelsEmulateAndVerify(t *testing.T) {
	if len(All()) == 0 {
		t.Fatal("no kernels registered")
	}
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			l, err := k.Build(testScale)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if err := l.Prog.Validate(); err != nil {
				t.Fatalf("program invalid: %v", err)
			}
			kt, err := emu.Run(emu.Launch{
				Prog:            l.Prog,
				Blocks:          l.Blocks,
				ThreadsPerBlock: l.ThreadsPerBlock,
				SharedBytes:     l.SharedBytes,
				Mem:             l.Mem,
				LineBytes:       128,
			})
			if err != nil {
				t.Fatalf("emulate: %v", err)
			}
			if err := kt.Validate(); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			if kt.TotalInsts() == 0 {
				t.Fatal("empty trace")
			}
			if l.Check == nil {
				t.Fatal("kernel has no output check")
			}
			if err := l.Check(l.Mem); err != nil {
				t.Fatalf("output check failed: %v", err)
			}
		})
	}
}

// TestKernelTraceShapes sanity-checks the advertised divergence degrees:
// DivNone kernels must coalesce (about one request per load from a full
// warp), DivHigh kernels must have instructions with many requests.
func TestKernelTraceShapes(t *testing.T) {
	// Use a production-like grid: divergence degrees of transpose-style
	// kernels depend on the matrix dimensions, which grow with the grid.
	shapeScale := Scale{Blocks: 64, Seed: 42}
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			kt, err := k.Trace(shapeScale, 128)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			maxReqs := 0
			for _, w := range kt.Warps {
				cur := w.Cursor()
				for cur.Next() {
					if r := cur.Rec(); r.IsGlobalMem() {
						if n := r.NumReqs(); n > maxReqs {
							maxReqs = n
						}
					}
				}
				if err := cur.Err(); err != nil {
					t.Fatal(err)
				}
			}
			switch k.MemDiv {
			case DivNone:
				if maxReqs > 2 {
					t.Errorf("kernel advertises no divergence but a memory instruction issued %d requests", maxReqs)
				}
			case DivHigh:
				if maxReqs < 8 {
					t.Errorf("kernel advertises high divergence but max requests per instruction is %d", maxReqs)
				}
			}
		})
	}
}

// TestKernelDeterminism verifies that two builds with the same seed yield
// identical traces.
func TestKernelDeterminism(t *testing.T) {
	k, err := Get("sdk_vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := k.Trace(testScale, 128)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := k.Trace(testScale, 128)
	if err != nil {
		t.Fatal(err)
	}
	if t1.TotalInsts() != t2.TotalInsts() {
		t.Fatalf("instruction counts differ: %d vs %d", t1.TotalInsts(), t2.TotalInsts())
	}
	for wi := range t1.Warps {
		a, b := recsOf(t, t1.Warps[wi]), recsOf(t, t2.Warps[wi])
		if len(a) != len(b) {
			t.Fatalf("warp %d lengths differ", wi)
		}
		for i := range a {
			if a[i].PC != b[i].PC || a[i].Mask != b[i].Mask || len(a[i].Lines) != len(b[i].Lines) {
				t.Fatalf("warp %d rec %d differs", wi, i)
			}
		}
	}
}

// TestWarpsPerBlockMatchesLaunch ensures registry metadata agrees with the
// built launch dimensions.
func TestWarpsPerBlockMatchesLaunch(t *testing.T) {
	for _, k := range All() {
		l, err := k.Build(testScale)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if got := l.ThreadsPerBlock / 32; got != k.WarpsPerBlock {
			t.Errorf("%s: ThreadsPerBlock/32 = %d, registry says %d", k.Name, got, k.WarpsPerBlock)
		}
		if l.Blocks != testScale.Blocks {
			t.Errorf("%s: built %d blocks, requested %d", k.Name, l.Blocks, testScale.Blocks)
		}
	}
}

var _ = trace.Assign // keep import for future shape tests
