// Command gpumech-trace inspects the input-collector products for one
// bundled kernel: the per-warp instruction trace, the cache-simulator
// per-PC profile, and the interval profile of a chosen warp.
//
// Usage:
//
//	gpumech-trace -kernel rodinia_bfs            # summary + per-PC profile
//	gpumech-trace -kernel rodinia_bfs -warp 3    # interval profile of warp 3
//	gpumech-trace -kernel rodinia_bfs -dump 40   # first 40 trace records
//
// The convert subcommand transcodes saved traces between the legacy gob
// format and the columnar v2 format (both gzip-compressed):
//
//	gpumech-trace convert -in old.trace -out new.trace                # to columnar
//	gpumech-trace convert -in new.trace -out old.trace -format gob    # back to gob
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/model"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/obs/obsflag"
	"gpumech/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		convert(os.Args[2:])
		return
	}
	kernel := flag.String("kernel", "sdk_vectoradd", "kernel name")
	blocks := flag.Int("blocks", 32, "thread blocks to trace")
	seed := flag.Int64("seed", 1, "synthetic input seed")
	warp := flag.Int("warp", -1, "print the interval profile of this warp index")
	dump := flag.Int("dump", 0, "dump the first N trace records of the chosen warp")
	disasm := flag.Bool("disasm", false, "print the kernel program listing")
	save := flag.String("save", "", "write the trace to this file")
	format := flag.String("format", "columnar", "format for -save: columnar (v2) or gob (legacy v1)")
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
		if err := saveAs(tr, *save, *format); err != nil {
			fail(err)
		}
		fmt.Printf("saved %s trace to %s\n", *format, *save)
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
		profiles, err := model.BuildWarpProfiles(tr, cfg, tbl)
		if err != nil {
			isp.End()
			fail(err)
		}
		observer.ObserveSince("stage.interval_profiling.seconds", start)
		isp.SetInt("warps", int64(len(profiles)))
		isp.End()
		p := profiles[w]
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
			for i, r := range tr.Warps[w].Recs {
				if i >= *dump {
					break
				}
				fmt.Printf("  %4d: pc %3d %-6s mask %08x reqs %d\n", i, r.PC, r.Op, r.Mask, r.NumReqs())
			}
		}
	}
}

// convert transcodes a saved trace file between formats. The input format
// is sniffed from the file; -format picks the output encoding.
func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (format auto-detected)")
	out := fs.String("out", "", "output trace file")
	format := fs.String("format", "columnar", "output format: columnar (v2) or gob (legacy v1)")
	if err := fs.Parse(args); err != nil {
		fail(err)
	}
	if *in == "" || *out == "" {
		fail(fmt.Errorf("convert: -in and -out are required"))
	}
	tr, err := trace.LoadStream(*in)
	if err != nil {
		fail(err)
	}
	if err := saveAs(tr, *out, *format); err != nil {
		fail(err)
	}
	fmt.Printf("converted %s -> %s (%s, %d warps, %d warp-instructions)\n",
		*in, *out, *format, len(tr.Warps), tr.TotalInsts())
}

func saveAs(tr *trace.Kernel, path, format string) error {
	switch format {
	case "columnar":
		return tr.Save(path)
	case "gob":
		return tr.SaveLegacy(path)
	}
	return fmt.Errorf("unknown trace format %q (want columnar or gob)", format)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gpumech-trace:", err)
	os.Exit(1)
}
