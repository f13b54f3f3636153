package gen

import (
	"testing"

	"gpumech/internal/check"
	"gpumech/internal/emu"
)

// FuzzGenerate drives the generator over arbitrary (seed, index) pairs:
// whatever the inputs, Generate must either fail loudly or return a
// kernel that carries no error-severity findings and emulates without
// panicking. This is the generator-side counterpart of
// FuzzEmuAcceptsVerifiedPrograms — instead of mutating raw instruction
// bytes it mutates the generator's stream selectors, covering the
// template space at full program size.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(1), int64(199))
	f.Add(int64(-7), int64(42))
	f.Add(int64(0), int64(0))
	f.Add(int64(1<<62), int64(-1))
	f.Fuzz(func(t *testing.T, seed, index int64) {
		k, err := Generate(seed, index)
		if err != nil {
			t.Fatalf("Generate(%d, %d): %v", seed, index, err)
		}
		for _, finding := range k.Verify() {
			if finding.Severity == check.Error {
				t.Fatalf("%s: error finding: %v", k.Name, finding)
			}
		}
		// Emulate a trimmed grid: the safety property is per-program, so
		// two blocks exercise every warp shape without the fuzz loop
		// paying for the full grid.
		l := k.Launch(128)
		if l.Blocks > 2 {
			l.Blocks = 2
		}
		l.MaxRecs = 200_000
		if _, err := emu.Run(l); err != nil {
			t.Fatalf("%s: emulate: %v", k.Name, err)
		}
	})
}
