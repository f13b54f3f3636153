package interval

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// genNumRegs bounds the register namespace of generated traces; it must
// cover every Dst/Src index randomTrace emits.
const genNumRegs = 16

// randomTrace generates a register-dependency-rich warp trace over a small
// static program: a mix of ALU, FP, SFU, global-load and global-store
// instructions whose sources are drawn from recently written registers.
// The returned table carries a random latency per PC and, for load PCs, a
// random miss-event distribution.
func randomTrace(rng *rand.Rand) ([]trace.Rec, *PCTable) {
	numPCs := 2 + rng.Intn(12)
	tbl := &PCTable{
		Latency:    make([]float64, numPCs),
		L1MissRate: make([]float64, numPCs),
		L2MissRate: make([]float64, numPCs),
		DistL1:     make([]float64, numPCs),
		DistL2:     make([]float64, numPCs),
		DistDRAM:   make([]float64, numPCs),
	}
	ops := make([]isa.Op, numPCs)
	for pc := 0; pc < numPCs; pc++ {
		switch rng.Intn(5) {
		case 0:
			ops[pc] = isa.OpLdG
			tbl.Latency[pc] = 20 + 400*rng.Float64()
			l1, l2 := rng.Float64(), rng.Float64()
			dram := rng.Float64()
			tot := l1 + l2 + dram
			tbl.DistL1[pc] = l1 / tot
			tbl.DistL2[pc] = l2 / tot
			tbl.DistDRAM[pc] = dram / tot
			tbl.L1MissRate[pc] = tbl.DistL2[pc] + tbl.DistDRAM[pc]
			tbl.L2MissRate[pc] = tbl.DistDRAM[pc]
		case 1:
			ops[pc] = isa.OpStG
			tbl.Latency[pc] = 1 + 10*rng.Float64()
		case 2:
			ops[pc] = isa.OpFSqrt
			tbl.Latency[pc] = 4 + 16*rng.Float64()
		case 3:
			ops[pc] = isa.OpFMul
			tbl.Latency[pc] = 2 + 6*rng.Float64()
		default:
			ops[pc] = isa.OpIAdd
			tbl.Latency[pc] = 1 + 4*rng.Float64()
		}
	}

	n := 1 + rng.Intn(200)
	recs := make([]trace.Rec, 0, n)
	for i := 0; i < n; i++ {
		pc := rng.Intn(numPCs)
		r := trace.Rec{PC: int32(pc), Op: ops[pc], Mask: uint32(1 + rng.Intn(0xFFFF))}
		for s := range r.Srcs {
			r.Srcs[s] = isa.RegNone
		}
		if ops[pc] != isa.OpStG {
			r.Dst = isa.Reg(rng.Intn(genNumRegs))
		} else {
			r.Dst = isa.RegNone
		}
		for s := 0; s < rng.Intn(3); s++ {
			r.Srcs[s] = isa.Reg(rng.Intn(genNumRegs))
			r.NumSrcs++
		}
		if ops[pc] == isa.OpLdG || ops[pc] == isa.OpStG {
			lines := 1 + rng.Intn(8)
			for l := 0; l < lines; l++ {
				r.Lines = append(r.Lines, uint64(rng.Intn(1024))*128)
			}
			// Coalesced lines are strictly ascending, as the trace format
			// requires.
			slices.Sort(r.Lines)
			r.Lines = slices.Compact(r.Lines)
		}
		recs = append(recs, r)
	}
	return recs, tbl
}

// TestPropertyConservation drives the interval algorithm with seeded
// random traces and checks the paper's structural invariants: the interval
// instruction counts sum to the trace length, every stall is non-negative
// (Profile.Validate covers both), the single-warp execution time is
// bounded below by the pure issue time, and the memory-instruction
// accounting matches the trace.
func TestPropertyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		recs, tbl := randomTrace(rng)
		issueRate := []float64{0.5, 1, 2}[rng.Intn(3)]
		p, err := Build(colWarp(t, recs), genNumRegs, issueRate, tbl)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if p.Insts != len(recs) {
			t.Fatalf("trial %d: profiled %d insts, trace has %d", trial, p.Insts, len(recs))
		}
		if floor := float64(len(recs)) / issueRate; p.TotalCycles() < floor-1e-9 {
			t.Fatalf("trial %d: TotalCycles %g below issue floor %g", trial, p.TotalCycles(), floor)
		}

		loads, mshrMax, dramMax := 0, 0.0, 0.0
		for _, r := range recs {
			if r.Op == isa.OpLdG {
				loads++
				mshrMax += float64(r.NumReqs())
			}
			if r.Op == isa.OpLdG || r.Op == isa.OpStG {
				dramMax += float64(r.NumReqs())
			}
		}
		memInsts, mshrReqs, dramReqs := 0, 0.0, 0.0
		for _, iv := range p.Intervals {
			if iv.MSHRReqs < 0 || iv.DRAMReqs < 0 || iv.MSHRLoadInsts < 0 || iv.DRAMLoadInsts < 0 {
				t.Fatalf("trial %d: negative memory accounting in %+v", trial, iv)
			}
			memInsts += iv.MemInsts
			mshrReqs += iv.MSHRReqs
			dramReqs += iv.DRAMReqs
		}
		if memInsts != loads {
			t.Fatalf("trial %d: MemInsts sum %d, trace has %d loads", trial, memInsts, loads)
		}
		// Expected requests are miss-rate-weighted (and merge-window
		// deduplicated), so they can never exceed the raw request counts.
		if mshrReqs > mshrMax+1e-9 {
			t.Fatalf("trial %d: MSHRReqs %g exceeds total load requests %g", trial, mshrReqs, mshrMax)
		}
		if dramReqs > dramMax+1e-9 {
			t.Fatalf("trial %d: DRAMReqs %g exceeds total memory requests %g", trial, dramReqs, dramMax)
		}
	}
}

// TestPropertyDeterminism rebuilds the same random trace twice and demands
// structurally identical profiles — the foundation of the repository's
// byte-identical reproducibility guarantees.
func TestPropertyDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		recs, tbl := randomTrace(rng)
		w := colWarp(t, recs)
		a, err := Build(w, genNumRegs, 1, tbl)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(w, genNumRegs, 1, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: two builds of the same trace differ:\n%+v\n%+v", trial, a, b)
		}
	}
}

// TestPropertySummarizeMatchesBuild checks Summarize against Build on
// random traces, with and without the merge window: the same Insts,
// Stall and IssueRate bit for bit, no intervals, and Build's interval
// count.
func TestPropertySummarizeMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		recs, tbl := randomTrace(rng)
		if trial%2 == 1 {
			tbl.MergeWindow = 50
		}
		issueRate := []float64{1, 0.5, 2}[trial%3]
		w := colWarp(t, recs)
		full, err := Build(w, genNumRegs, issueRate, tbl)
		if err != nil {
			t.Fatal(err)
		}
		sum, n, err := Summarize(w, genNumRegs, issueRate, tbl)
		if err != nil {
			t.Fatal(err)
		}
		want := &Profile{Insts: full.Insts, Stall: full.Stall, IssueRate: full.IssueRate}
		if !reflect.DeepEqual(sum, want) || n != len(full.Intervals) {
			t.Fatalf("trial %d: summary %+v with %d intervals, want %+v with %d",
				trial, sum, n, want, len(full.Intervals))
		}
	}
}

// TestPropertyStallCauses checks the CPI-stack preconditions on random
// traces: every stalling interval (except a possible trailing drain) names
// a cause PC that exists in the trace, and its recorded class matches the
// program's class for that PC.
func TestPropertyStallCauses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		recs, tbl := randomTrace(rng)
		p, err := Build(colWarp(t, recs), genNumRegs, 1, tbl)
		if err != nil {
			t.Fatal(err)
		}
		classOf := make(map[int]isa.Class)
		for _, r := range recs {
			classOf[int(r.PC)] = r.Op.Class()
		}
		for i, iv := range p.Intervals {
			if iv.StallCycles == 0 || iv.CausePC < 0 {
				continue
			}
			cls, ok := classOf[iv.CausePC]
			if !ok {
				t.Fatalf("trial %d: interval %d blames pc %d which never executed", trial, i, iv.CausePC)
			}
			if iv.CauseClass != cls {
				t.Fatalf("trial %d: interval %d cause class %v, program says %v", trial, i, iv.CauseClass, cls)
			}
		}
	}
}
