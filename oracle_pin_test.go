package gpumech

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"gpumech/internal/config"
	"gpumech/internal/kernels"
	"gpumech/internal/timing"
)

// oracleBlocks is the grid of the oracle pin. With four warps per block
// on 16 cores, 72 blocks leaves cores 0-7 a fifth block that the 16-warp
// configuration admits only after one of its four resident blocks
// drains, so block admission and scoreboard reuse are pinned too.
const oracleBlocks = 72

// oraclePinConfigs are the configurations of the oracle pin: the Table I
// baseline and one step along each axis the timing oracle treats
// structurally (residency, MSHRs, DRAM channel, SFU occupancy).
func oraclePinConfigs() []struct {
	name string
	cfg  config.Config
} {
	base := config.Baseline()
	return []struct {
		name string
		cfg  config.Config
	}{
		{"base", base},
		{"warps16", base.WithWarps(16)},
		{"warps48", base.WithWarps(48)},
		{"mshrs8", base.WithMSHRs(8)},
		{"bw96", base.WithBandwidth(96)},
		{"sfus4", base.WithSFUs(4)},
	}
}

func oraclePinPath(kernel string) string {
	return filepath.Join("testdata", "oracle", kernel+".json")
}

// encodeOraclePin writes one kernel's runs as a JSON object with one
// run per line, in key order, so a moved number shows as a one-line diff.
func encodeOraclePin(runs map[string]*timing.Result) ([]byte, error) {
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		data, err := json.Marshal(runs[k])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %q: %s", k, data)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// diffOracle compares every field of two timing results exactly: floats
// by their bits, everything else by value. It walks the struct by
// reflection so a field added to timing.Result is pinned without edits
// here.
func diffOracle(got, want *timing.Result) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		gf, wf := g.Field(i), w.Field(i)
		if gf.Kind() == reflect.Float64 {
			if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
				return fmt.Sprintf("%s = %v, want %v", name, gf.Float(), wf.Float())
			}
			continue
		}
		if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			return fmt.Sprintf("%s = %v, want %v", name, gf.Interface(), wf.Interface())
		}
	}
	return ""
}

// TestOracleResultsPinned pins the full timing.Result — cycles, per-core
// counts, diagnostics and the stall breakdown — of every bundled kernel
// at a small grid, over six configurations under both scheduling
// policies, against testdata/oracle. Any change to the timing oracle,
// however small, moves a number here; a speedup of the oracle must leave
// every file byte-identical. Deliberate oracle changes re-bless with:
//
//	go test -run TestOracleResultsPinned -update
//
// The oracle is single-threaded, so under the race detector the sweep
// keeps only every eighth kernel at the baseline.
func TestOracleResultsPinned(t *testing.T) {
	names := kernels.Names()
	cfgs := oraclePinConfigs()
	if raceEnabled && !*updateGolden {
		var trimmed []string
		for i, name := range names {
			if i%8 == 0 {
				trimmed = append(trimmed, name)
			}
		}
		names, cfgs = trimmed, cfgs[:1]
	}
	policies := []struct {
		name string
		pol  timing.Policy
	}{{"rr", timing.RR}, {"gto", timing.GTO}}

	var mu sync.Mutex
	got := make(map[string]map[string]*timing.Result)
	t.Run("kernels", func(t *testing.T) {
		for _, name := range names {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var want map[string]*timing.Result
				if !*updateGolden {
					data, err := os.ReadFile(oraclePinPath(name))
					if err != nil {
						t.Fatalf("missing oracle pin (generate with: go test -run TestOracleResultsPinned -update): %v", err)
					}
					if err := json.Unmarshal(data, &want); err != nil {
						t.Fatalf("corrupt oracle pin %s: %v", oraclePinPath(name), err)
					}
				}
				info, err := kernels.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := info.Trace(kernels.Scale{Blocks: oracleBlocks, Seed: 1}, config.Baseline().L1LineBytes)
				if err != nil {
					t.Fatal(err)
				}
				runs := make(map[string]*timing.Result)
				for _, c := range cfgs {
					for _, p := range policies {
						key := c.name + "/" + p.name
						r, err := timing.Simulate(tr, c.cfg, p.pol)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						runs[key] = r
						if *updateGolden {
							continue
						}
						w, ok := want[key]
						if !ok {
							t.Fatalf("%s: no pinned result (re-bless with -update)", key)
						}
						if d := diffOracle(r, w); d != "" {
							t.Errorf("%s: %s", key, d)
						}
					}
				}
				mu.Lock()
				got[name] = runs
				mu.Unlock()
			})
		}
	})

	if *updateGolden && !t.Failed() {
		if err := os.MkdirAll(filepath.Join("testdata", "oracle"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := encodeOraclePin(got[name])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(oraclePinPath(name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d files under testdata/oracle", len(names))
	}
}

// TestOracleStallsCoverCoreCycles checks the oracle's cycle accounting on
// every pinned run, reading testdata/oracle and simulating nothing: each
// core-cycle either issues one instruction or is lost, to exactly one
// stall reason, so the core-cycles of a run equal its instructions plus
// its stall cycles, and its stall cycles equal its no-issue cycles.
// A core that sleeps while another issues must be charged its lost
// cycles too, not only the cycles the whole machine skips.
func TestOracleStallsCoverCoreCycles(t *testing.T) {
	runs := 0
	for _, name := range kernels.Names() {
		data, err := os.ReadFile(oraclePinPath(name))
		if err != nil {
			t.Fatal(err)
		}
		var pinned map[string]*timing.Result
		if err := json.Unmarshal(data, &pinned); err != nil {
			t.Fatalf("corrupt oracle pin %s: %v", oraclePinPath(name), err)
		}
		for key, r := range pinned {
			var coreCycles, stalls int64
			for _, c := range r.PerCoreCycles {
				coreCycles += c
			}
			for _, s := range r.Stalls {
				stalls += s
			}
			if coreCycles != r.Insts+stalls || stalls != r.NoIssueCycles {
				t.Errorf("%s %s: %d core-cycles, %d instructions, %d stall cycles, %d no-issue cycles",
					name, key, coreCycles, r.Insts, stalls, r.NoIssueCycles)
			}
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no pinned runs read")
	}
}
