package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpumech/internal/config"
	"gpumech/internal/obs"
	"gpumech/internal/report"
)

// equivFigures is a figure subset that exercises the full parallel plan
// machinery (baseline points, config sweeps, both policies) while staying
// cheap at the tiny grid. "speedup" is excluded everywhere below: its
// rows report wall-clock timings, which legitimately differ run to run.
var equivFigures = []string{"fig11", "fig12", "fig13"}

func runFigures(t *testing.T, workers int) ([]*report.Figure, string) {
	t.Helper()
	var log bytes.Buffer
	e := NewEvaluator(Options{
		Kernels: []string{"sdk_vectoradd", "rodinia_cfd_compute_flux"},
		Blocks:  64,
		Quick:   true,
		Workers: workers,
		Log:     &log,
	})
	figs, err := e.Run(equivFigures)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return figs, log.String()
}

// TestParallelFiguresMatchSequential is the determinism acceptance test:
// the same figure set built on one worker and on several must be
// byte-identical — same rows, headers, and notes in the same order.
func TestParallelFiguresMatchSequential(t *testing.T) {
	seq, _ := runFigures(t, 1)
	for _, workers := range []int{2, 4} {
		par, _ := runFigures(t, workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d figures, sequential built %d", workers, len(par), len(seq))
		}
		for i, sf := range seq {
			pf := par[i]
			if pf.ID != sf.ID || pf.Title != sf.Title {
				t.Errorf("workers=%d: figure %d is %s/%s, want %s/%s", workers, i, pf.ID, pf.Title, sf.ID, sf.Title)
				continue
			}
			if !reflect.DeepEqual(pf.Headers, sf.Headers) {
				t.Errorf("workers=%d: %s headers diverge", workers, sf.ID)
			}
			if !reflect.DeepEqual(pf.Rows, sf.Rows) {
				t.Errorf("workers=%d: %s rows diverge:\nparallel:   %v\nsequential: %v", workers, sf.ID, pf.Rows, sf.Rows)
			}
			if !reflect.DeepEqual(pf.Notes, sf.Notes) {
				t.Errorf("workers=%d: %s notes diverge", workers, sf.ID)
			}
		}
	}
}

// TestParallelEvalsMatchSequential checks equivalence below the report
// layer: every cached Eval (CPI numbers, stacks, baseline models) must be
// identical between a sequential and a parallel run.
func TestParallelEvalsMatchSequential(t *testing.T) {
	mkEval := func(workers int) *Evaluator {
		e := NewEvaluator(Options{
			Kernels: []string{"sdk_vectoradd", "rodinia_cfd_compute_flux"},
			Blocks:  64,
			Quick:   true,
			Workers: workers,
		})
		if _, err := e.Run(equivFigures); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return e
	}
	seq, par := mkEval(1), mkEval(4)
	if len(par.evals) != len(seq.evals) {
		t.Fatalf("parallel cached %d evals, sequential %d", len(par.evals), len(seq.evals))
	}
	for key, sv := range seq.evals {
		pv, ok := par.evals[key]
		if !ok {
			t.Errorf("parallel run missing eval %q", key)
			continue
		}
		if !reflect.DeepEqual(*pv, *sv) {
			t.Errorf("eval %q diverges:\nparallel:   %+v\nsequential: %+v", key, *pv, *sv)
		}
	}
}

// TestParallelLogOrder checks that the ordered writer releases progress
// lines in plan order even when workers finish out of order: every line
// for the first kernel precedes every line for the second.
func TestParallelLogOrder(t *testing.T) {
	_, log := runFigures(t, 4)
	lines := strings.Split(strings.TrimSpace(log), "\n")
	if len(lines) < 4 {
		t.Fatalf("log too short (%d lines):\n%s", len(lines), log)
	}
	// Figure-building banner lines mention no kernel; classify the rest.
	kernelOf := func(line string) string {
		for _, k := range []string{"sdk_vectoradd", "rodinia_cfd_compute_flux"} {
			if strings.Contains(line, k) {
				return k
			}
		}
		return ""
	}
	seenSecond := false
	for i, line := range lines {
		switch kernelOf(line) {
		case "rodinia_cfd_compute_flux":
			seenSecond = true
		case "sdk_vectoradd":
			if seenSecond {
				t.Fatalf("line %d for sdk_vectoradd after rodinia_cfd_compute_flux lines:\n%s", i, log)
			}
		}
	}
	if !seenSecond {
		t.Fatalf("no lines for second kernel in log:\n%s", log)
	}
}

// TestDedupPoints pins the plan dedup used by the parallel executor: the
// sequential path skips repeat (config, policy) points via the eval
// cache, so the parallel plan must collapse them before fan-out to keep
// the two paths evaluating identical work.
func TestDedupPoints(t *testing.T) {
	base := config.Baseline()
	pts := []point{
		{base, config.RR},
		{base.WithWarps(8), config.RR},
		{base, config.RR}, // repeat of the first
		{base, config.GTO},
		{base.WithWarps(8), config.RR}, // repeat of the second
	}
	got := dedupPoints(pts)
	want := []point{pts[0], pts[1], pts[3]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedupPoints = %v, want %v", got, want)
	}
}

// TestTraceSpanRecordsEmulation: the Evaluator's trace span records how
// the emulator ran, as a Session's does, and one worker keeps the
// emulator sequential.
func TestTraceSpanRecordsEmulation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg, tr := obs.NewRegistry(), obs.NewTracer()
		e := NewEvaluator(Options{
			Kernels: []string{"sdk_vectoradd"},
			Blocks:  8,
			Quick:   true,
			Workers: workers,
			Obs:     obs.NewObserver(reg, tr),
		})
		if _, err := e.Eval("sdk_vectoradd", config.Baseline(), config.GTO); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, r := range tr.Records() {
			if r.Name != "trace" {
				continue
			}
			for _, a := range r.Attrs {
				got[a.Key] = a.Value
			}
		}
		if got["workers"] != fmt.Sprint(workers) || got["fallback"] != "none" {
			t.Errorf("%d workers: trace span workers=%q fallback=%q, want %d and none",
				workers, got["workers"], got["fallback"], workers)
		}
		if n := reg.Counter("emu.fallbacks").Value(); n != 0 {
			t.Errorf("%d workers: emu.fallbacks = %d, want 0", workers, n)
		}
	}
}
