package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process and host counters a phase is
// measured by.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user+sys of the whole process (getrusage)
	allocBytes uint64        // /gc/heap/allocs:bytes
	gcCPU      float64       // /cpu/classes/gc/total:cpu-seconds
	totalCPU   float64       // /cpu/classes/total:cpu-seconds
	gcCycles   uint64        // /gc/cycles/total:gc-cycles
	steal      uint64        // /proc/stat steal jiffies, all CPUs
	hostTotal  uint64        // /proc/stat jiffies, all CPUs
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func sampleUsage() usage {
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u := usage{
		wall:       time.Now(), //det:ok the benchmark measures wall time; no model state depends on it
		cpu:        processCPU(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
	}
	u.steal, u.hostTotal = readSteal()
	return u
}

// allocBytes reads the cumulative heap allocation counter alone; spans
// use it to attribute allocation to one layer call.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapBytes reports the heap still reachable after the last GC.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal returns the host's steal and total jiffies from the first
// line of /proc/stat (zeros where the file is unavailable). Guest time
// is already counted in user and nice, so it is left out of the total.
func readSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// delta is what a phase consumed between two snapshots, per op where
// the name says so.
type delta struct {
	wallS      float64
	cpuMsPerOp float64
	allocMBOp  float64
	gcCPUPct   float64
	gcPerOp    float64
	stealPct   float64
}

const mb = 1 << 20

func between(a, b usage, ops int) delta {
	d := delta{wallS: b.wall.Sub(a.wall).Seconds()}
	if ops > 0 {
		d.cpuMsPerOp = float64(b.cpu-a.cpu) / float64(time.Millisecond) / float64(ops)
		d.allocMBOp = float64(b.allocBytes-a.allocBytes) / mb / float64(ops)
		d.gcPerOp = float64(b.gcCycles-a.gcCycles) / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUPct = 100 * (b.gcCPU - a.gcCPU) / cpu
	}
	if t := b.hostTotal - a.hostTotal; t > 0 {
		d.stealPct = 100 * float64(b.steal-a.steal) / float64(t)
	}
	return d
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank method: the smallest value with at least p% of the
// samples at or below it.
func nearestRank(sorted []float64, p int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the default
// exclusive method), the quartiles the steadiness report's spreads are
// read against.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
