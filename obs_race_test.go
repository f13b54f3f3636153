package gpumech

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"gpumech/internal/obs"
)

// TestConcurrentSessionWithMetrics hammers one Session from many
// goroutines with a shared live observer — estimates under both policies,
// baselines and oracle runs all racing on the prep memo, the
// metrics registry and the span tree. Run under -race this is the
// concurrency proof for the instrumented pipeline.
func TestConcurrentSessionWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	o := obs.NewObserver(reg, tr)
	sess, err := NewSession("sdk_vectoradd", WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	want, err := sess.Estimate(cfg, RR)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters*3)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				est, err := sess.Estimate(cfg, RR)
				if err != nil {
					errs <- err
					continue
				}
				if !reflect.DeepEqual(est, want) {
					t.Errorf("goroutine %d: concurrent estimate diverged", g)
				}
				if _, err := sess.Estimate(cfg, GTO); err != nil {
					errs <- err
				}
				if _, err := sess.EstimateBaseline(cfg, NaiveInterval); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared registry and tracer must have survived the stampede in a
	// consistent, serializable state.
	if n := reg.Counter("cache.profile.memo_hits").Value() + reg.Counter("cache.profile.memo_misses").Value(); n < goroutines*iters {
		t.Errorf("memo counters saw %d lookups, want at least %d", n, goroutines*iters)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestObserverDoesNotChangeEstimates is the byte-identical guarantee: the
// model figures with a live observer attached must equal the figures with
// no observer at all, exactly — instrumentation may time and count, never
// perturb.
func TestObserverDoesNotChangeEstimates(t *testing.T) {
	cfg := DefaultConfig()
	for _, kernel := range []string{"sdk_vectoradd", "sdk_matrixmul_naive"} {
		plain, err := NewSession(kernel)
		if err != nil {
			t.Fatal(err)
		}
		instr, err := NewSession(kernel, WithObserver(obs.NewObserver(obs.NewRegistry(), obs.NewTracer())))
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{RR, GTO} {
			a, err := plain.Estimate(cfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			b, err := instr.Estimate(cfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%v: estimate changed under instrumentation:\nplain: %+v\nobserved: %+v", kernel, pol, a, b)
			}
		}
		ba, err := plain.EstimateBaseline(cfg, NaiveInterval)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := instr.EstimateBaseline(cfg, NaiveInterval)
		if err != nil {
			t.Fatal(err)
		}
		if ba != bb {
			t.Errorf("%s: baseline changed under instrumentation: %g vs %g", kernel, ba, bb)
		}
	}
}
