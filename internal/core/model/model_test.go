package model

import (
	"reflect"
	"testing"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/emu"
	"gpumech/internal/isa"
	"gpumech/internal/kernels"
	"gpumech/internal/trace"
)

// testKernel builds and traces a small kernel with both compute and
// divergent memory behaviour.
func testKernel(t *testing.T) *trace.Kernel {
	t.Helper()
	b := isa.NewBuilder("model-test")
	gid := b.GlobalID()
	// Divergent load: stride 32 elements.
	addr := b.Reg()
	b.IMulI(addr, gid, 128)
	base := b.ImmReg(1 << 20)
	b.IAdd(addr, addr, base)
	v := b.Reg()
	b.LdG(v, addr, 0, isa.MemF32)
	f := b.Reg()
	b.FMul(f, v, v)
	b.FAdd(f, f, v)
	// Coalesced store.
	out := b.Reg()
	b.Shl(out, gid, 2)
	base2 := b.ImmReg(1 << 22)
	b.IAdd(out, out, base2)
	b.StG(out, 0, f, isa.MemF32)
	prog := b.MustBuild()
	k, err := emu.Run(emu.Launch{Prog: prog, Blocks: 16, ThreadsPerBlock: 128, LineBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func cfgSmall() config.Config {
	c := config.Baseline()
	c.Cores = 4
	c.WarpsPerCore = 8
	return c
}

func TestBuildPCTableLatencies(t *testing.T) {
	k := testKernel(t)
	cfg := cfgSmall()
	prof, err := cache.Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := BuildPCTable(k.Prog, cfg, prof)
	for pc, in := range k.Prog.Instrs {
		want := 0.0
		switch in.Op.Class() {
		case isa.ClassALU, isa.ClassCtrl, isa.ClassBar, isa.ClassExit:
			want = float64(cfg.ALULatency)
		case isa.ClassFP:
			want = float64(cfg.FPLatency)
		case isa.ClassSFU:
			want = float64(cfg.SFULatency)
		case isa.ClassSMem:
			want = float64(cfg.SMemLatency)
		case isa.ClassGMem:
			continue // AMAT-dependent, checked below
		}
		if tbl.Latency[pc] != want {
			t.Errorf("pc %d (%s): latency %g, want %g", pc, in.Op, tbl.Latency[pc], want)
		}
	}
	// The load PC must carry an AMAT >= L1 latency.
	for _, pc := range k.Prog.StaticMemPCs() {
		if k.Prog.Instrs[pc].Op == isa.OpLdG && tbl.Latency[pc] < float64(cfg.L1Latency) {
			t.Errorf("load pc %d AMAT = %g < L1 latency", pc, tbl.Latency[pc])
		}
	}
	if tbl.MergeWindow <= 0 {
		t.Error("merge window not set from the profile")
	}
}

func TestRunLevelsAreOrdered(t *testing.T) {
	k := testKernel(t)
	cfg := cfgSmall()
	prof, err := cache.Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cpis []float64
	for _, lvl := range []Level{MT, MTMSHR, MTMSHRBand} {
		est, err := Run(Inputs{Kernel: k, Cfg: cfg, Profile: prof, Policy: config.RR, Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		cpis = append(cpis, est.CPI)
	}
	if cpis[1] < cpis[0]-1e-9 || cpis[2] < cpis[1]-1e-9 {
		t.Errorf("model levels not monotone: MT %g MSHR %g BAND %g", cpis[0], cpis[1], cpis[2])
	}
}

func TestEstimateConsistency(t *testing.T) {
	k := testKernel(t)
	cfg := cfgSmall()
	prof, err := cache.Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Run(Inputs{Kernel: k, Cfg: cfg, Profile: prof, Policy: config.GTO, Level: MTMSHRBand})
	if err != nil {
		t.Fatal(err)
	}
	if est.CPI != est.CPIMultithreading+est.CPIContention {
		t.Errorf("Eq. 3 violated: %g != %g + %g", est.CPI, est.CPIMultithreading, est.CPIContention)
	}
	if est.IPCPerCore() != 1/est.CPI {
		t.Error("IPC inverse wrong")
	}
	if est.RepWarp < 0 || est.RepWarp >= len(k.Warps) {
		t.Errorf("rep warp %d out of range", est.RepWarp)
	}
	// The stack must total the predicted CPI.
	if d := est.Stack.CPI() - est.CPI; d > 1e-6 || d < -1e-6 {
		t.Errorf("stack CPI %g != estimate %g", est.Stack.CPI(), est.CPI)
	}
}

func TestRunWithRepresentativeBounds(t *testing.T) {
	k := testKernel(t)
	cfg := cfgSmall()
	prof, err := cache.Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := BuildPCTable(k.Prog, cfg, prof)
	profiles, err := BuildWarpProfilesWorkers(k, cfg, tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Kernel: k, Cfg: cfg, Profile: prof, Policy: config.RR, Level: MTMSHRBand}
	if _, err := RunWithRepresentative(in, tbl, profiles, -1); err == nil {
		t.Error("negative rep accepted")
	}
	if _, err := RunWithRepresentative(in, tbl, profiles, len(profiles)); err == nil {
		t.Error("out-of-range rep accepted")
	}
	if _, err := RunWithRepresentative(in, tbl, profiles, 0); err != nil {
		t.Errorf("valid rep rejected: %v", err)
	}
}

// TestStructuralRepsMatchesStructural checks that selecting on warp
// summaries picks the representatives selection on full profiles picks,
// that their profiles are the full ones, and that Run answers what the
// all-warp path answers, on kernels whose warps differ. The reference is
// the all-warp path: BuildPCTable, BuildWarpProfilesWorkers, then
// SelectRepresentative and RunWithRepresentative.
func TestStructuralRepsMatchesStructural(t *testing.T) {
	for _, name := range []string{"rodinia_bfs", "rodinia_hotspot", "sdk_reduction"} {
		info, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		k, err := info.Trace(kernels.Scale{Blocks: 16, Seed: 1}, 128)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Baseline()
		prof, err := cache.Simulate(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := Inputs{Kernel: k, Cfg: cfg, Profile: prof, Policy: config.GTO, Level: MTMSHRBand}
		wantT := BuildPCTable(k.Prog, cfg, prof)
		full, err := BuildWarpProfilesWorkers(k, cfg, wantT, 0)
		if err != nil {
			t.Fatal(err)
		}
		gotT, profiles, reps, err := StructuralReps(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotT, wantT) {
			t.Errorf("%s: PC tables differ", name)
		}
		isRep := map[int]bool{}
		for _, m := range []cluster.Method{cluster.Clustering, cluster.Max, cluster.Min} {
			want, err := SelectRepresentative(full, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if reps[m] != want {
				t.Errorf("%s: %v representative = %d, want %d", name, m, reps[m], want)
			}
			isRep[want] = true
			wantEst, err := RunWithRepresentative(in, wantT, full, want)
			if err != nil {
				t.Fatal(err)
			}
			in.Method = m
			gotEst, err := Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotEst, wantEst) {
				t.Errorf("%s: %v: Run differs from the all-warp path", name, m)
			}
		}
		if len(isRep) < 2 {
			t.Errorf("%s: Max and Min pick the same warp; the kernel does not exercise selection", name)
		}
		if len(profiles) != len(full) {
			t.Fatalf("%s: %d profiles, want %d", name, len(profiles), len(full))
		}
		for i, p := range profiles {
			switch {
			case isRep[i] && !reflect.DeepEqual(p, full[i]):
				t.Errorf("%s: representative %d: profile differs from the all-warp path's", name, i)
			case !isRep[i] && p != nil:
				t.Errorf("%s: warp %d is no representative but has a profile", name, i)
			}
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	k := testKernel(t)
	cfg := cfgSmall()
	prof, _ := cache.Simulate(k, cfg)
	if _, err := Run(Inputs{Kernel: nil, Cfg: cfg, Profile: prof}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := Run(Inputs{Kernel: k, Cfg: cfg, Profile: nil}); err == nil {
		t.Error("nil profile accepted")
	}
	bad := cfg
	bad.Cores = 0
	if _, err := Run(Inputs{Kernel: k, Cfg: bad, Profile: prof}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Run(Inputs{Kernel: k, Cfg: cfg, Profile: prof, Method: 3}); err == nil {
		t.Error("unknown selection method accepted")
	}
}

func TestLevelStrings(t *testing.T) {
	if MT.String() != "MT" || MTMSHR.String() != "MT_MSHR" || MTMSHRBand.String() != "MT_MSHR_BAND" {
		t.Error("level strings wrong")
	}
}
