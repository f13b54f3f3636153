// Command perfbench is the repository's benchmark: four seeded,
// closed-loop workloads over the gpumech library and its serving stack,
// each printing its end-to-end metrics, or with -trace 1 its per-layer
// metrics, and checking every op's output. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep_warm --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload first_contact --steady 5
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gpumech"
	"gpumech/internal/obs"
	"gpumech/internal/store"
)

// setupReps is how many times an untraced run builds its set-up; it
// reports the median, so one slow build does not move setup_s.
const setupReps = 5

// minOps keeps at least ten samples beyond p90.
const minOps = 100

// workDir holds what a run writes: profile stores (removed at exit)
// and the traced run's spans.
const workDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; the op sequence is a pure function of it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1: a traced run, reporting per-layer metrics")
	steadyRuns := fs.Int("steady", 0, "steadiness report: run the workload this many times, one seed each")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "all" && *steadyRuns == 0 {
		return runAll(*seed, *seconds, *traced, stdout, stderr)
	}
	s, err := specFor(*workload)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>", err)
		return 2
	}
	if *steadyRuns > 0 {
		return steady(s.Name, *seed, *seconds, *steadyRuns, stdout, stderr)
	}
	b := &bench{plan: newPlan(s, *seed), seconds: *seconds, stdout: stdout, stderr: stderr,
		dir: filepath.Join(workDir, fmt.Sprintf("%s-%d", s.Name, os.Getpid()))}
	if *traced == 1 {
		b.tc = newTracer()
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type bench struct {
	plan    *plan
	seconds float64
	dir     string
	tc      *tracer // nil: untraced run
	stdout  io.Writer
	stderr  io.Writer

	lib *library
	srv *serving

	mu     sync.Mutex
	failed map[int]string // op index -> first failure
	digest []uint64       // sweep_warm, first_contact: each op's estimate digest
	first  map[int]opOut  // fixed plans: each distinct point's first output
}

// maxOps sizes the per-op buffers, allocated before a phase so that the
// benchmark's own memory does not grow with the op count and move
// heap_live_mb.
const maxOps = 1 << 15

type phase struct {
	ms    []float64 // per-op latency, by op index
	use   delta
	marks []mark // block starts, then the end of the phase
}

// mark is where a block starts, or the phase ends.
type mark struct {
	op   int
	at   time.Time
	cpu  time.Duration
	live uint64 // heap bytes the last GC cycle found live
}

func (b *bench) run() (*result, error) {
	name := b.plan.spec.Name
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	b.failed = map[int]string{}
	b.first = map[int]opOut{}
	b.digest = make([]uint64, 0, maxOps)
	if name == serveStore {
		b.srv = newServing(b.plan, b.dir)
		defer b.srv.close()
	} else {
		b.lib = newLibrary(b.plan)
	}

	reps := setupReps
	if b.tc != nil {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		start := time.Now() //det:ok the benchmark measures wall time; no model state depends on it
		var err error
		if b.srv != nil {
			err = b.srv.setup(r, b.tc)
		} else {
			err = b.lib.setup()
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds()) //det:ok the benchmark measures wall time; no model state depends on it
	}

	un := b.timed()
	if err := b.verify(len(un.ms)); err != nil {
		return nil, err
	}
	b.checkStore()
	modelErr, err := b.modelError()
	if err != nil {
		return nil, err
	}

	lat := append([]float64(nil), un.ms...)
	sort.Float64s(lat)
	thr, cpu, p50, p90 := un.windowed()
	var lives []float64
	for _, m := range un.marks {
		lives = append(lives, float64(m.live)/mb)
	}
	fmt.Fprintf(b.stdout, "workload=%s seed=%d ops=%d windows=%d/%d beyond_p90=%d steal_pct=%.2f setup_s=%.4g\n",
		name, b.plan.seed, len(lat), len(un.windows(20)), len(un.windows(100)),
		countAbove(lat, nearestRank(lat, 90)), un.use.stealPct, setups)
	fmt.Fprintf(b.stdout, "whole phase: ops_per_s=%.6g latency_p50_ms=%.6g latency_p90_ms=%.6g cpu_ms_per_op=%.6g\n",
		float64(len(lat))/un.use.wallS, nearestRank(lat, 50), nearestRank(lat, 90), un.use.cpuMsPerOp)

	res := &result{Attempted: len(lat), Metrics: map[string]metric{}}
	if b.tc == nil {
		put := func(n string, v float64, unit string) { res.Metrics[n] = metric{v, unit} }
		put("setup_s", median(setups), "s")
		put("ops_per_s", thr, "ops/s")
		put("latency_p50_ms", p50, "ms")
		put("latency_p90_ms", p90, "ms")
		put("cpu_ms_per_op", cpu, "ms")
		put("alloc_mb_per_op", un.use.allocMBOp, "MB")
		put("heap_live_mb", median(lives), "MB")
		put("model_err_pct", modelErr, "%")
	} else {
		b.placement(un.ms)
		tr, err := b.tracedPhase(un)
		if err != nil {
			return nil, err
		}
		b.checkStore()
		res.Attempted += tr.ops
		res.Metrics = tr.metrics
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-s%d.json", name, b.plan.seed))
		if err := b.tc.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.stdout, "spans written to %s\n", path)
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(b.stdout, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	res.Failed = len(b.failed)
	res.Correct = res.Failed == 0
	fmt.Fprintf(b.stdout, "failed=%d of %d (failed_pct=%.4f)\n", res.Failed, res.Attempted,
		100*float64(res.Failed)/float64(res.Attempted))
	b.reportFailures()
	return res, nil
}

func countAbove(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func (b *bench) fail(i int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.failed[i]; !ok {
		b.failed[i] = err.Error()
	}
}

func (b *bench) reportFailures() {
	idx := make([]int, 0, len(b.failed))
	for i := range b.failed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for n, i := range idx {
		if n == 5 {
			fmt.Fprintf(b.stderr, "  ... %d more failed ops\n", len(idx)-n)
			break
		}
		fmt.Fprintf(b.stderr, "op %d failed: %s\n", i, b.failed[i])
	}
}

// feeder hands the plan's ops to the callers in order. Once the phase
// has lasted its seconds and done minOps ops, it stops at the next
// block boundary, so every run executes whole blocks.
type feeder struct {
	mu       sync.Mutex
	plan     *plan
	next     int
	blockNo  int
	block    []point
	deadline time.Time
	stopAt   int
	marks    []mark // one per block
}

func newFeeder(p *plan, seconds float64) *feeder {
	return &feeder{plan: p, blockNo: -1, stopAt: -1,
		deadline: time.Now().Add(time.Duration(seconds * float64(time.Second)))} //det:ok the benchmark measures wall time; no model state depends on it
}

func (f *feeder) take() (int, point, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, bl := f.next, f.plan.blockLen()
	if f.stopAt < 0 && i >= minOps && !time.Now().Before(f.deadline) { //det:ok the benchmark measures wall time; no model state depends on it
		f.stopAt = (i + bl - 1) / bl * bl
	}
	if f.stopAt >= 0 && i >= f.stopAt {
		return 0, point{}, false
	}
	if b := i / bl; b != f.blockNo {
		f.block, f.blockNo = f.plan.block(b), b
		f.marks = append(f.marks, mark{i, time.Now(), processCPU(), liveHeapBytes()}) //det:ok the benchmark measures wall time; no model state depends on it
	}
	f.next++
	return i, f.block[i%bl], true
}

// drive runs ops from a fresh feeder on the workload's callers until the
// feeder stops. do runs op i and returns its latency; a failure is
// recorded under op index base+i.
func (b *bench) drive(base int, do func(i int, p point) (time.Duration, error)) phase {
	f := newFeeder(b.plan, b.seconds)
	var mu sync.Mutex
	ms := make([]float64, 0, maxOps)
	var wg sync.WaitGroup
	u0 := sampleUsage()
	for c := 0; c < b.plan.spec.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, p, ok := f.take()
				if !ok {
					return
				}
				d, err := do(i, p)
				if err != nil {
					b.fail(base+i, err)
				}
				mu.Lock()
				for len(ms) <= i {
					ms = append(ms, 0)
				}
				ms[i] = msOf(d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	u1 := sampleUsage()
	return phase{ms: ms, use: between(u0, u1, len(ms)),
		marks: append(f.marks, mark{len(ms), u1.wall, u1.cpu, liveHeapBytes()})}
}

// windows groups the phase's blocks into consecutive windows of at
// least minOps ops each, the last one taking any remainder.
func (ph phase) windows(minOps int) [][2]mark {
	var out [][2]mark
	start := 0
	for j := 1; j < len(ph.marks); j++ {
		if ph.marks[j].op-ph.marks[start].op >= minOps {
			out = append(out, [2]mark{ph.marks[start], ph.marks[j]})
			start = j
		}
	}
	if n := len(out); n > 0 && start < len(ph.marks)-1 {
		out[n-1][1] = ph.marks[len(ph.marks)-1]
	} else if n == 0 && len(ph.marks) > 1 {
		out = append(out, [2]mark{ph.marks[0], ph.marks[len(ph.marks)-1]})
	}
	return out
}

// windowed reports the phase's throughput, CPU per op and latency
// percentiles as medians over windows of whole blocks, each window the
// fewest blocks holding at least ten samples beyond the percentile (20
// ops for p50, 100 for p90; throughput and CPU use the p50 windows). A
// burst of host contention slows the windows it overlaps; while it
// covers fewer than half of them the medians do not move.
func (ph phase) windowed() (opsPerS, cpuMs, p50, p90 float64) {
	pct := func(w [2]mark, p int) float64 {
		lat := append([]float64(nil), ph.ms[w[0].op:w[1].op]...)
		sort.Float64s(lat)
		return nearestRank(lat, p)
	}
	var thr, cpu, l50, l90 []float64
	for _, w := range ph.windows(20) {
		n := float64(w[1].op - w[0].op)
		thr = append(thr, n/w[1].at.Sub(w[0].at).Seconds())
		cpu = append(cpu, msOf(w[1].cpu-w[0].cpu)/n)
		l50 = append(l50, pct(w, 50))
	}
	for _, w := range ph.windows(100) {
		l90 = append(l90, pct(w, 90))
	}

	return median(thr), median(cpu), median(l50), median(l90)
}

// timed is the untimed-by-tracing phase every run makes: the op through
// the public API, timed alone, then cheap output checks.
func (b *bench) timed() phase {
	return b.drive(0, func(i int, p point) (time.Duration, error) {
		start := time.Now() //det:ok the benchmark measures wall time; no model state depends on it
		var o opOut
		var err error
		if b.srv != nil {
			o, err = b.srv.op(p)
		} else {
			o, err = b.lib.op(p)
		}
		d := time.Since(start) //det:ok the benchmark measures wall time; no model state depends on it
		if err != nil {
			return d, err
		}
		return d, b.keep(i, p, o)
	})
}

// keep checks an op's output against the first output of the same
// point and keeps what the reference check after the phase needs.
func (b *bench) keep(i int, p point, o opOut) error {
	o.sess = nil
	if err := sane(o); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p.ID < 0 {
		// A digest per op, in a buffer allocated before the phase, keeps
		// the benchmark's own memory out of heap_live_mb.
		for len(b.digest) <= i {
			b.digest = append(b.digest, 0)
		}
		b.digest[i] = digest(o.est)
		return nil
	}
	if f, ok := b.first[p.ID]; ok {
		if err := same(f, o); err != nil {
			return fmt.Errorf("differs from the first run of the same point: %w", err)
		}
		return nil
	}
	b.first[p.ID] = o
	return nil
}

// checkStore fails one op per corrupt entry the backends' profile
// store read: the store rebuilt those entries, but a store that
// corrupts what it wrote is broken.
func (b *bench) checkStore() {
	if b.srv == nil {
		return
	}
	for k := 1; k <= int(b.srv.counters()["store.corrupt"]); k++ {
		b.fail(-k, errors.New("profile store read a corrupt entry"))
	}
}

// matchFirst checks a traced op's output against the untraced phase's
// first output of the same point.
func (b *bench) matchFirst(p point, o opOut) error {
	if err := sane(o); err != nil {
		return err
	}
	b.mu.Lock()
	f, ok := b.first[p.ID]
	b.mu.Unlock()
	if ok {
		return same(f, o)
	}
	return nil
}

// digest hashes every field of an estimate (FNV-1a over the float
// bits), so estimates that differ in any bit get different digests but
// for a 2^-64 chance. It never returns 0, which marks a failed op.
func digest(e *gpumech.Estimate) uint64 {
	if e == nil {
		return 0
	}
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for k := 0; k < 8; k++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, f := range []float64{e.CPI, e.IPC, e.MultithreadingCPI, e.ContentionCPI,
		e.MSHRDelayCycles, e.DRAMDelayCycles} {
		mix(math.Float64bits(f))
	}
	for _, f := range e.Stack {
		mix(math.Float64bits(f))
	}
	mix(uint64(e.RepWarp))
	mix(uint64(e.Intervals))
	mix(uint64(e.WarpInsts))
	if h == 0 {
		h = 1
	}
	return h
}

// refCheckEvery samples first_contact's reference check: its reference
// costs as much as the op, so checking every op would double the run.
const refCheckEvery = 4

// verify compares the untraced phase's outputs with references computed
// through another entry path: the composed layer calls for library
// estimates, a storeless Session plus runjson for served bodies.
func (b *bench) verify(ops int) error {
	name := b.plan.spec.Name
	if b.lib != nil {
		if err := b.lib.prepare(nil); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	estimateErr := func(p point, d uint64) error {
		ref, err := b.lib.compose(nil, 0, -1, p, false)
		if err != nil {
			return err
		}
		if digest(ref.est) != d {
			return fmt.Errorf("estimate differs from the composed layer calls (%+v)", ref.est)
		}
		return nil
	}
	if b.plan.fixed == nil {
		b.plan.forOps(ops, func(i int, p point) {
			if d := b.digest[i]; d != 0 && (name != firstContact || i%refCheckEvery == 0) {
				if err := estimateErr(p, d); err != nil {
					b.fail(i, err)
				}
			}
		})
		return nil
	}
	// A first output that differs from its reference fails every op of
	// its point, since the repeats equal it.
	bad := map[int]error{}
	for id, first := range b.first {
		p := b.plan.fixed[id]
		if name == serveStore {
			ref, err := b.srv.reference(p)
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			if !bytes.Equal(ref, first.body) {
				bad[id] = errors.New("body differs from the storeless library document")
			}
		} else if err := estimateErr(p, digest(first.est)); err != nil {
			bad[id] = err
		}
	}
	if len(bad) > 0 {
		b.plan.forOps(ops, func(i int, p point) {
			if err := bad[p.ID]; err != nil {
				b.fail(i, err)
			}
		})
	}
	return nil
}

// modelError is the mean |model CPI - oracle CPI| / oracle CPI, in
// percent: over the plan's points on validate_oracle, and elsewhere over
// anchor points (each kernel at the baseline configuration), so every
// workload pins the accuracy of the kernels it times.
func (b *bench) modelError() (float64, error) {
	var sum float64
	var n int
	if b.plan.spec.Name == validateOracle {
		for _, id := range sortedKeys(b.first) {
			o := b.first[id]
			sum += gpumech.RelativeError(o.est.CPI, o.orc.CPI)
			n++
		}
	} else {
		for _, k := range b.plan.kernels() {
			p := basePoint(k)
			if g := b.plan.spec.Grids; g != nil {
				p.Blocks = g[len(g)-1]
			}
			s, err := gpumech.NewSession(k, gpumech.WithBlocks(p.Blocks))
			if err != nil {
				return 0, err
			}
			est, err := s.Estimate(p.config(), p.Policy)
			if err != nil {
				return 0, err
			}
			h := b.tc.begin("timing", 0, -1, true)
			orc, err := s.Oracle(p.config(), p.Policy)
			if err != nil {
				h.end(0)
				return 0, err
			}
			h.end(orc.Insts)
			sum += gpumech.RelativeError(est.CPI, orc.CPI)
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("no model error samples")
	}
	return 100 * sum / float64(n), nil
}

// placement prints each kernel's latency plateau (median and quartiles
// of its ops) in the untraced phase, then which kernel, or on plans of
// distinct points which point, sits at the p50 and p90 ranks and how
// far the nearest op of another one is, in ranks and in milliseconds. A
// percentile a few ranks from a gap between two plateaus can jump
// across it from run to run.
func (b *bench) placement(ms []float64) {
	type sample struct {
		label string
		ms    float64
	}
	var s []sample
	byKernel := map[string][]float64{}
	b.plan.forOps(len(ms), func(i int, p point) {
		s = append(s, sample{p.label(), ms[i]})
		byKernel[p.Kernel] = append(byKernel[p.Kernel], ms[i])
	})
	sort.SliceStable(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	line := "plateaus " + b.plan.spec.Name
	for _, k := range sortedKeys(byKernel) {
		q1, q2, q3 := quartiles(byKernel[k])
		line += fmt.Sprintf(" %s=%.3f[%.3f-%.3f]ms/%d", k, q2, q1, q3, len(byKernel[k]))
	}
	fmt.Fprintln(b.stdout, line)
	for _, p := range []int{50, 90} {
		r := (p*len(s)+99)/100 - 1
		if r < 0 {
			continue
		}
		line := fmt.Sprintf("placement %s p%d=%.3fms at=%s", b.plan.spec.Name, p, s[r].ms, s[r].label)
		for _, dir := range []int{-1, 1} {
			j := r
			for j >= 0 && j < len(s) && s[j].label == s[r].label {
				j += dir
			}
			side := "below"
			if dir > 0 {
				side = "above"
			}
			if j < 0 || j >= len(s) {
				line += fmt.Sprintf(" %s=none", side)
				continue
			}
			line += fmt.Sprintf(" %s=%s(%d ranks, %.3fms)", side, s[j].label, (j-r)*dir, math.Abs(s[j].ms-s[r].ms))
		}
		fmt.Fprintln(b.stdout, line)
	}
}

// traced is the outcome of the traced phase.
type traced struct {
	ops     int
	metrics map[string]metric
}

// tracedPhase reruns the plan from its first op with spans. Each
// library op is replaced by the layer calls the Session would make,
// each one a span, and the real op then runs untimed, reporting to an
// attached Observer, to check the composed output byte for byte. A
// served op is the real request, followed by a replay of the store
// read, the model stages and the document it should have produced.
func (b *bench) tracedPhase(un phase) (*traced, error) {
	name := b.plan.spec.Name
	reg := obs.NewRegistry()
	var st *store.Store
	if b.srv != nil {
		var err error
		if st, err = store.Open(b.srv.storeDir, nil); err != nil {
			return nil, err
		}
	} else {
		b.lib.obs = obs.NewObserver(reg, nil)
		if err := b.lib.prepare(b.tc); err != nil {
			return nil, err
		}
	}
	counters := func() map[string]float64 {
		if b.srv != nil {
			return b.srv.counters()
		}
		out := map[string]float64{}
		for k, v := range reg.Snapshot().Counters {
			out[k] = float64(v)
		}
		return out
	}
	c0 := counters()
	ph := b.drive(len(un.ms), func(i int, p point) (time.Duration, error) {
		op := b.tc.begin("op", 0, i, false)
		if b.srv != nil {
			h := b.tc.begin("http", op.id(), i, false)
			o, err := b.srv.op(p)
			h.end(0)
			d := op.end(0)
			if err != nil {
				return d, err
			}
			body, err := b.srv.replay(b.tc, i, st, p)
			if err != nil {
				return d, err
			}
			if !bytes.Equal(body, o.body) {
				return d, errors.New("served body differs from the replayed store read")
			}
			return d, b.matchFirst(p, o)
		}
		c, err := b.lib.compose(b.tc, op.id(), i, p, name == validateOracle)
		d := op.end(0)
		if err != nil {
			return d, err
		}
		o, err := b.lib.op(p)
		if err != nil {
			return d, err
		}
		if err := same(o, c); err != nil {
			return d, fmt.Errorf("composed layer calls disagree: %w", err)
		}
		want, err := document(b.tc, i, o.sess, p, o)
		if err != nil {
			return d, err
		}
		got, err := document(b.tc, i, o.sess, p, c)
		if err != nil {
			return d, err
		}
		if !bytes.Equal(want, got) {
			return d, errors.New("composed document differs from the Session's")
		}
		return d, b.matchFirst(p, o)
	})
	c1 := counters()
	ops := len(ph.ms)
	m := layerMetrics(b.tc.records(), ops, c0, c1)
	var attributed float64
	for _, k := range sortedKeys(m) {
		if strings.HasSuffix(k, ".self_pct") || k == "bench.unattributed_pct" {
			attributed += m[k].Value
		}
	}
	fmt.Fprintf(b.stdout, "attribution %s: layer self times plus unattributed = %.2f%% of traced op time\n",
		name, attributed)

	// Tracing overhead: the traced op (composed calls with spans) against
	// the untraced op, over the ops both phases ran.
	n := min(ops, len(un.ms))
	var tSum, uSum float64
	for i := 0; i < n; i++ {
		tSum += ph.ms[i]
		uSum += un.ms[i]
	}
	put := func(k string, v float64, unit string) { m[k] = metric{v, unit} }
	if uSum > 0 {
		put("tracing.overhead_pct", 100*(tSum-uSum)/uSum, "%")
	}
	put("gc.cpu_pct", un.use.gcCPUPct, "%")
	put("gc.cycles_per_op", un.use.gcPerOp, "count")
	put("host.steal_pct", un.use.stealPct, "%")
	return &traced{ops: ops, metrics: m}, nil
}
