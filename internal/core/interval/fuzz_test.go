package interval

import (
	"slices"
	"testing"

	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// FuzzBuild feeds arbitrary byte-derived traces to the interval algorithm
// and checks the conservation invariants it must uphold for any input.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2))
	f.Add([]byte{255, 0, 255, 0, 17, 34, 51}, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, latPick uint8) {
		lat := []float64{1, 4, 25, 420}
		tbl := &PCTable{
			Latency:    lat,
			L1MissRate: []float64{0, 0.5, 1, 0.25},
			L2MissRate: []float64{0, 0.25, 1, 0.1},
			DistL1:     []float64{1, 0.5, 0, 0.7},
			DistL2:     []float64{0, 0.25, 0, 0.2},
			DistDRAM:   []float64{0, 0.25, 1, 0.1},
		}
		if latPick%2 == 0 {
			tbl.MergeWindow = 100
		}
		var recs []trace.Rec
		for i := 0; i+3 <= len(raw) && len(recs) < 300; i += 3 {
			pc := int(raw[i]) % len(lat)
			r := trace.Rec{PC: int32(pc), Op: isa.OpIAdd, Mask: 1}
			r.Dst = isa.Reg(raw[i+1] % 12)
			for j := range r.Srcs {
				r.Srcs[j] = isa.RegNone
			}
			if raw[i+2]%4 != 0 {
				r.Srcs[0] = isa.Reg(raw[i+2] % 12)
				r.NumSrcs = 1
			}
			if raw[i]%5 == 0 {
				r.Op = isa.OpLdG
				// Coalesced lines are strictly ascending, as the trace
				// format requires: sort and dedupe the pair rather than
				// discard the input.
				r.Lines = []uint64{uint64(raw[i+1]) * 128, uint64(raw[i+2]) * 128}
				slices.Sort(r.Lines)
				r.Lines = slices.Compact(r.Lines)
			} else if raw[i]%7 == 0 {
				r.Op = isa.OpStG
				r.Dst = isa.RegNone
				r.Lines = []uint64{uint64(raw[i+1]) * 128}
			}
			recs = append(recs, r)
		}
		p, err := Build(colWarp(t, recs), 16, 1, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("invariants violated: %v", err)
		}
		if p.Insts != len(recs) {
			t.Fatalf("instruction conservation: %d != %d", p.Insts, len(recs))
		}
		if p.TotalCycles() < float64(p.Insts) {
			t.Fatal("total cycles below the issue bound")
		}
		for i, iv := range p.Intervals {
			if iv.MSHRReqs < 0 || iv.DRAMReqs < 0 || iv.MSHRLoadInsts < 0 || iv.DRAMLoadInsts < 0 {
				t.Fatalf("interval %d has negative accounting: %+v", i, iv)
			}
		}
	})
}
