package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// steady runs one workload runs times, each in its own process with
// seeds seed, seed+1, ..., and prints per end-to-end metric the median,
// the quartiles and the quartile spread as a share of the median, beside
// the bound BENCHMARK.json sets. It also prints the host's steal time
// over each run, which explains most wall-clock outliers.
func steady(workload string, seed int64, seconds float64, runs int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < runs; r++ {
		s := seed + int64(r)
		st0, tot0 := readSteal()
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		st1, tot1 := readSteal()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		var res result
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: bad result (%v)\n", s, err)
			return 1
		}
		steal := 0.0
		if tot1 > tot0 {
			steal = 100 * float64(st1-st0) / float64(tot1-tot0)
		}
		fmt.Fprintf(stdout, "run %d seed=%d host.steal_pct=%.2f", r, s, steal)
		for _, n := range sortedKeys(res.Metrics) {
			values[n] = append(values[n], res.Metrics[n].Value)
			units[n] = res.Metrics[n].Unit
			fmt.Fprintf(stdout, " %s=%.6g", n, res.Metrics[n].Value)
		}
		fmt.Fprintln(stdout)
	}
	bounds := readBounds("BENCHMARK.json")
	fmt.Fprintf(stdout, "%-18s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, n := range sortedKeys(units) {
		q1, q2, q3 := quartiles(values[n])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-18s %-6s %12.6g %12.6g %12.6g %8.4f %6.3g\n", n, units[n], q1, q2, q3, spread, bounds[n])
	}
	return 0
}

// runAll runs every workload once, each in its own process, passing its
// output through; it fails if any workload does.
func runAll(seed int64, seconds float64, traced int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json,
// when the run can see it.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &doc) == nil {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
