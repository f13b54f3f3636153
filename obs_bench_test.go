package gpumech

import (
	"testing"

	"gpumech/internal/obs"
)

// benchEstimate times the full instrumented pipeline end to end. Comparing
// the Disabled and Enabled variants (b.ReportAllocs on both) shows the
// cost of the observability hooks themselves: with a nil observer every
// instrument call must be a no-op, so allocs/op of the two must match.
func benchEstimate(b *testing.B, o *Observer) {
	sess, err := NewSession("sdk_vectoradd", WithObserver(o))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	if _, err := sess.Estimate(cfg, RR); err != nil { // warm the prep memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Estimate(cfg, RR); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateObserverDisabled(b *testing.B) { benchEstimate(b, nil) }

func BenchmarkEstimateObserverEnabled(b *testing.B) {
	benchEstimate(b, obs.NewObserver(obs.NewRegistry(), obs.NewTracer()))
}
