// Command gpumech-trace inspects the input-collector products for one
// bundled kernel: the per-warp instruction trace, the cache-simulator
// per-PC profile, and the interval profile of a chosen warp.
//
// Usage:
//
//	gpumech-trace -kernel rodinia_bfs            # summary + per-PC profile
//	gpumech-trace -kernel rodinia_bfs -warp 3    # interval profile of warp 3
//	gpumech-trace -kernel rodinia_bfs -dump 40   # first 40 trace records
//	gpumech-trace -kernel rodinia_bfs -save t.trace
//	gpumech-trace -load t.trace -warp 0 -dump 20 # inspect a saved trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/interval"
	"gpumech/internal/core/model"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/obs/obsflag"
	"gpumech/internal/trace"
)

func main() {
	kernel := flag.String("kernel", "sdk_vectoradd", "kernel name")
	blocks := flag.Int("blocks", 32, "thread blocks to trace")
	seed := flag.Int64("seed", 1, "synthetic input seed")
	warp := flag.Int("warp", -1, "print the interval profile of this warp index")
	dump := flag.Int("dump", 0, "dump the first N trace records of the chosen warp")
	disasm := flag.Bool("disasm", false, "print the kernel program listing")
	save := flag.String("save", "", "write the trace to this file")
	loadPath := flag.String("load", "", "load a previously saved trace instead of emulating")
	ob := obsflag.Register(flag.CommandLine)
	flag.Parse()

	observer, err := ob.Setup()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := ob.Finish(); err != nil {
			fail(err)
		}
	}()

	cfg := config.Baseline()
	var tr *trace.Kernel
	if *loadPath != "" {
		var err error
		tr, err = trace.Load(*loadPath)
		if err != nil {
			fail(err)
		}
	} else {
		info, err := kernels.Get(*kernel)
		if err != nil {
			fail(err)
		}
		sp := observer.StartSpan("trace")
		sp.SetStr("kernel", *kernel)
		start := time.Now()
		l, err := info.EmuLaunch(kernels.Scale{Blocks: *blocks, Seed: *seed}, cfg.L1LineBytes)
		if err != nil {
			sp.End()
			fail(err)
		}
		var st emu.Stats
		l.Stats = &st
		if tr, err = emu.Run(l); err != nil {
			sp.End()
			fail(err)
		}
		observer.ObserveSince("stage.trace.seconds", start)
		sp.SetInt("instructions", tr.TotalInsts())
		st.Observe(sp, observer)
		sp.End()
	}
	if *save != "" {
		if err := tr.Save(*save); err != nil {
			fail(err)
		}
		fmt.Printf("saved trace to %s\n", *save)
	}
	fmt.Printf("kernel %s: %d blocks x %d warps, %d static instructions, %d dynamic warp-instructions\n",
		tr.Name, tr.Blocks, tr.WarpsPerBlock, len(tr.Prog.Instrs), tr.TotalInsts())
	if *disasm {
		fmt.Println()
		fmt.Print(tr.Prog.Disassemble())
	}

	csp := observer.StartSpan("cache-sim")
	start := time.Now()
	prof, err := cache.Simulate(tr, cfg)
	if err != nil {
		csp.End()
		fail(err)
	}
	observer.ObserveSince("stage.cachesim.seconds", start)
	csp.End()
	fmt.Println("\nper-PC cache profile (loads classified by worst request):")
	fmt.Print(prof.String())
	fmt.Printf("avg miss latency: %.1f cycles\n", prof.AvgMissLatency())

	w := *warp
	if w < 0 && *dump > 0 {
		w = 0
	}
	if w >= 0 {
		if w >= len(tr.Warps) {
			fail(fmt.Errorf("warp %d out of range (%d warps)", w, len(tr.Warps)))
		}
		tbl := model.BuildPCTable(tr.Prog, cfg, prof)
		isp := observer.StartSpan("interval-profiling")
		start := time.Now()
		p, err := interval.Build(tr.Warps[w], tr.Prog.NumRegs+tr.Prog.NumPreds, cfg.IssueRate(), tbl)
		if err != nil {
			isp.End()
			fail(fmt.Errorf("warp %d: %w", w, err))
		}
		observer.ObserveSince("stage.interval_profiling.seconds", start)
		isp.SetInt("warps", 1)
		isp.End()
		fmt.Printf("\nwarp %d interval profile: %d instructions, %d intervals, %.1f stall cycles, warp_perf %.4f\n",
			w, p.Insts, len(p.Intervals), p.Stall, p.WarpPerf())
		for i, iv := range p.Intervals {
			if i >= 20 {
				fmt.Printf("  ... (%d more intervals)\n", len(p.Intervals)-20)
				break
			}
			fmt.Printf("  interval %3d: %3d insts, %7.1f stall (cause pc %d, %s)\n",
				i, iv.Insts, iv.StallCycles, iv.CausePC, iv.CauseClass)
		}
		if *dump > 0 {
			fmt.Printf("\nfirst %d records of warp %d:\n", *dump, w)
			cur := tr.Warps[w].Cursor()
			for i := 0; i < *dump && cur.Next(); i++ {
				r := cur.Rec()
				fmt.Printf("  %4d: pc %3d %-6s mask %08x reqs %d\n", i, r.PC, r.Op, r.Mask, r.NumReqs())
			}
			if err := cur.Err(); err != nil {
				fail(err)
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gpumech-trace:", err)
	os.Exit(1)
}
