package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gpumech"
)

func TestPlanIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, name := range workloadNames {
		s := specs[name]
		shuffled := s
		shuffled.Mix = append([]share(nil), s.Mix...)
		rand.New(rand.NewSource(7)).Shuffle(len(shuffled.Mix), func(i, j int) {
			shuffled.Mix[i], shuffled.Mix[j] = shuffled.Mix[j], shuffled.Mix[i]
		})
		reversed := s
		reversed.Mix = nil
		for i := len(s.Mix) - 1; i >= 0; i-- {
			reversed.Mix = append(reversed.Mix, s.Mix[i])
		}
		a, b, c := newPlan(s, 42), newPlan(shuffled, 42), newPlan(reversed, 42)
		other := newPlan(s, 43)
		differs := false
		for blk := 0; blk < 3; blk++ {
			want := a.block(blk)
			if got := b.block(blk); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s block %d depends on the kernel list order", name, blk)
			}
			if got := c.block(blk); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s block %d depends on the kernel list order (reversed)", name, blk)
			}
			if got := newPlan(s, 42).block(blk); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s block %d differs between two plans of one seed", name, blk)
			}
			if !reflect.DeepEqual(other.block(blk), want) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 give the same ops", name)
		}
	}
}

func TestPlanPointsAreValidAndMixIsFixed(t *testing.T) {
	for _, name := range workloadNames {
		p := newPlan(specs[name], 5)
		for blk := 0; blk < 4; blk++ {
			ops := p.block(blk)
			if len(ops) != p.blockLen() {
				t.Fatalf("%s block %d has %d ops, want %d", name, blk, len(ops), p.blockLen())
			}
			count := map[string]int{}
			for _, op := range ops {
				count[op.Kernel]++
				if err := op.config().Validate(); err != nil {
					t.Fatalf("%s: invalid point %+v: %v", name, op, err)
				}
			}
			for _, sh := range p.mix {
				if p.fixed == nil && count[sh.Kernel] != sh.Ops {
					t.Errorf("%s block %d runs %s %d times, want %d", name, blk, sh.Kernel, count[sh.Kernel], sh.Ops)
				}
			}
		}
		if n := len(p.fixed); n > 0 && (n%2 == 0 || (9*n)%10 != 5) {
			t.Errorf("%s lists %d distinct points; p50 or p90 would sit between two of them", name, n)
		}
	}
}

func TestFirstContactNeverRepeatsATraceIdentity(t *testing.T) {
	p := newPlan(specs[firstContact], 3)
	seen := map[int64]bool{}
	for blk := 0; blk < 50; blk++ {
		for _, op := range p.block(blk) {
			if op.TraceSeed <= 0 || seen[op.TraceSeed] {
				t.Fatalf("trace seed %d reused or reserved for warm-up", op.TraceSeed)
			}
			seen[op.TraceSeed] = true
		}
	}
}

func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		v    []float64
		p    int
		want float64
	}{
		{seq(10), 50, 5},
		{seq(10), 90, 9},
		{seq(100), 50, 50},
		{seq(100), 90, 90},
		{seq(101), 90, 91},
		{seq(20), 50, 10},
		{seq(3), 50, 2},
		{seq(3), 90, 3},
		{[]float64{7}, 90, 7},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := nearestRank(c.v, c.p); got != c.want {
			t.Errorf("nearestRank(%d values, p%d) = %v, want %v", len(c.v), c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(data, n=4), the default exclusive method.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}}, // extrapolated, as Python does
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestDeltasAreDividedPerOp(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := usage{wall: t0, cpu: time.Second, allocBytes: 10 * mb, gcCPU: 1, totalCPU: 10,
		gcCycles: 3, steal: 50, hostTotal: 1000}
	b := usage{wall: t0.Add(4 * time.Second), cpu: 3 * time.Second, allocBytes: 50 * mb, gcCPU: 2,
		totalCPU: 14, gcCycles: 11, steal: 60, hostTotal: 1200}
	d := between(a, b, 8)
	want := delta{wallS: 4, cpuMsPerOp: 250, allocMBOp: 5, gcCPUPct: 25, gcPerOp: 1, stealPct: 5}
	if d != want {
		t.Errorf("between = %+v, want %+v", d, want)
	}
	if z := between(a, b, 0); z.cpuMsPerOp != 0 || z.allocMBOp != 0 {
		t.Errorf("zero ops divided: %+v", z)
	}
}

func TestWindowsHoldWholeBlocks(t *testing.T) {
	t0 := time.Unix(0, 0)
	ph := phase{}
	for i := 0; i <= 10; i++ { // ten blocks of 7 ops, one second each
		ph.marks = append(ph.marks, mark{op: 7 * i, at: t0.Add(time.Duration(i) * time.Second),
			cpu: time.Duration(i) * 700 * time.Millisecond})
	}
	for i := 0; i < 70; i++ {
		ph.ms = append(ph.ms, float64(i%7+1))
	}
	w := ph.windows(20) // 3 blocks each; the tenth block joins the third window
	if len(w) != 3 || w[0][1].op != 21 || w[2][0].op != 42 || w[2][1].op != 70 {
		t.Fatalf("windows(20) = %v", w)
	}
	if one := ph.windows(100); len(one) != 1 || one[0][0].op != 0 || one[0][1].op != 70 {
		t.Fatalf("windows(100) over 70 ops = %v", one)
	}
	thr, cpu, p50, p90 := ph.windowed()
	if thr != 7 || cpu != 100 || p50 != 4 || p90 != 7 {
		t.Errorf("windowed = %v ops/s, %v ms/op, p50 %v, p90 %v", thr, cpu, p50, p90)
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := gpumech.Estimate{CPI: 1.5, IPC: 1 / 1.5, MultithreadingCPI: 1, ContentionCPI: 0.5,
		MSHRDelayCycles: 3, DRAMDelayCycles: 4, RepWarp: 7, Intervals: 9, WarpInsts: 11}
	base.Stack[0] = 1
	d := digest(&base)
	for i, mutate := range []func(*gpumech.Estimate){
		func(e *gpumech.Estimate) { e.CPI = 1.5000000000000002 },
		func(e *gpumech.Estimate) { e.IPC = 0 },
		func(e *gpumech.Estimate) { e.DRAMDelayCycles = 5 },
		func(e *gpumech.Estimate) { e.Stack[len(e.Stack)-1] = 1e-9 },
		func(e *gpumech.Estimate) { e.RepWarp = 8 },
		func(e *gpumech.Estimate) { e.WarpInsts = 12 },
	} {
		e := base
		mutate(&e)
		if digest(&e) == d {
			t.Errorf("mutation %d not seen by the digest", i)
		}
	}
	if digest(nil) != 0 || d == 0 {
		t.Error("0 must mark a missing estimate only")
	}
}
