package gpumech

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"gpumech/internal/emu"
	"gpumech/internal/gen"
	"gpumech/internal/kernels"
)

// The emulator pin's runs: every bundled kernel at two grids and two
// input seeds, plus the first emuPinGenerated kernels of generator seed
// 1 at their own grids. The generated kernels are the only end-to-end
// coverage of imad and imin, which no bundled kernel uses.
var (
	emuPinGrids = []int{64, 128}
	emuPinSeeds = []int64{1, 7}
)

const emuPinGenerated = 50

var emuPinPath = filepath.Join("testdata", "emu", "runs.json")

// emuPinRun is what the pin records of one emulation.
type emuPinRun struct {
	Trace string `json:"trace"` // SHA-256 of the v2 trace encoding
	Mem   string `json:"mem"`   // SHA-256 of the final memory, pages in address order
	Recs  int64  `json:"recs"`  // trace records
	Err   string `json:"err,omitempty"`
	// Fallback is why the three-worker run was rerun sequentially.
	Fallback string `json:"fallback"`
}

// emuPinLaunch is one run of the pin: a name and a fresh launch.
type emuPinLaunch struct {
	key    string
	launch func() (emu.Launch, error)
}

// emuPinLaunches lists the pin's runs grouped by kernel, in name order.
// Under the race detector only every eighth bundled and every eighth
// generated kernel is kept.
func emuPinLaunches(trim bool) [][]emuPinLaunch {
	var out [][]emuPinLaunch
	for i, name := range kernels.Names() {
		if trim && i%8 != 0 {
			continue
		}
		var runs []emuPinLaunch
		for _, blocks := range emuPinGrids {
			for _, seed := range emuPinSeeds {
				runs = append(runs, emuPinLaunch{
					key: fmt.Sprintf("%s/b%d/s%d", name, blocks, seed),
					launch: func() (emu.Launch, error) {
						info, err := kernels.Get(name)
						if err != nil {
							return emu.Launch{}, err
						}
						return info.EmuLaunch(kernels.Scale{Blocks: blocks, Seed: seed}, 128)
					},
				})
			}
		}
		out = append(out, runs)
	}
	for i := int64(0); i < emuPinGenerated; i++ {
		if trim && i%8 != 0 {
			continue
		}
		out = append(out, []emuPinLaunch{{
			key: fmt.Sprintf("gen/s1/i%d", i),
			launch: func() (emu.Launch, error) {
				k, err := gen.Generate(1, i)
				if err != nil {
					return emu.Launch{}, err
				}
				return k.Launch(128), nil
			},
		}})
	}
	return out
}

// emulatePin runs one launch at the given worker count and digests its
// outcome.
func emulatePin(p emuPinLaunch, workers int) (emuPinRun, error) {
	l, err := p.launch()
	if err != nil {
		return emuPinRun{}, err
	}
	var st emu.Stats
	l.Workers, l.Stats = workers, &st
	var r emuPinRun
	k, err := emu.Run(l)
	if err != nil {
		r.Err = err.Error()
	} else {
		h := sha256.New()
		if err := k.Encode(h); err != nil {
			return r, err
		}
		r.Trace, r.Recs = hex.EncodeToString(h.Sum(nil)), k.TotalInsts()
	}
	h := sha256.New()
	if _, err := l.Mem.WriteTo(h); err != nil {
		return r, err
	}
	r.Mem = hex.EncodeToString(h.Sum(nil))
	r.Fallback = st.Fallback.String()
	return r, nil
}

// TestEmulatorOutputPinned pins what emu.Run returns for every run of
// emuPinLaunches — the trace encoding, the final memory, the record
// count and the error — against testdata/emu. Each run is checked
// sequentially and over three block ranges; the three-worker run also
// pins why it fell back, if it did. A faster emulator must leave every
// line byte-identical. Deliberate emulator changes re-bless with:
//
//	go test -run TestEmulatorOutputPinned -update
func TestEmulatorOutputPinned(t *testing.T) {
	var want map[string]emuPinRun
	if !*updateGolden {
		data, err := os.ReadFile(emuPinPath)
		if err != nil {
			t.Fatalf("missing emulator pin (generate with: go test -run TestEmulatorOutputPinned -update): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt emulator pin %s: %v", emuPinPath, err)
		}
	}

	var mu sync.Mutex
	got := make(map[string]emuPinRun)
	t.Run("kernels", func(t *testing.T) {
		for _, runs := range emuPinLaunches(raceEnabled && !*updateGolden) {
			t.Run(runs[0].key, func(t *testing.T) {
				t.Parallel()
				for _, p := range runs {
					seq, err := emulatePin(p, 1)
					if err != nil {
						t.Fatalf("%s: %v", p.key, err)
					}
					par, err := emulatePin(p, 3)
					if err != nil {
						t.Fatalf("%s: %v", p.key, err)
					}
					// Only the three-worker run can fall back; the rest of
					// its outcome must be the sequential one.
					seq.Fallback = par.Fallback
					if par != seq {
						t.Errorf("%s: three workers %+v, sequential %+v", p.key, par, seq)
					}
					mu.Lock()
					got[p.key] = seq
					mu.Unlock()
					if *updateGolden {
						continue
					}
					if w, ok := want[p.key]; !ok {
						t.Errorf("%s: no pinned run (re-bless with -update)", p.key)
					} else if seq != w {
						t.Errorf("%s: emulated %+v, pinned %+v", p.key, seq, w)
					}
				}
			})
		}
	})

	if *updateGolden && !t.Failed() {
		data, err := encodeEmuPin(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(emuPinPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(emuPinPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d runs to %s", len(got), emuPinPath)
	}
}

// encodeEmuPin writes the runs as a JSON object with one run per line,
// in key order, so a moved run shows as a one-line diff.
func encodeEmuPin(runs map[string]emuPinRun) ([]byte, error) {
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
