package experiments

import (
	"gpumech/internal/config"
	"gpumech/internal/core/cpistack"
	"gpumech/internal/report"
	"gpumech/internal/stats"
)

// stackKernels cover the main bottleneck classes for the stack-validation
// study: compute-bound, latency-bound, MSHR-bound, and queue-bound.
var stackKernels = []string{
	"sdk_blackscholes",
	"rodinia_cfd_step_factor",
	"rodinia_cfd_compute_flux",
	"rodinia_srad1",
	"rodinia_kmeans_invert",
	"parboil_spmv",
}

// Stacks validates the model's CPI stacks (Section VII) against the
// oracle's measured stall breakdown.
//
// Only the queueing categories are directly comparable: the model's
// BASE/DEP/L1/L2/DRAM layers are, by the paper's construction, the
// single-warp stall mix *scaled to preserve relative importance* under
// multithreading — most of that latency is hidden and never shows up as a
// lost cycle in the oracle (warps waiting on loads overlap other warps'
// issues). Queueing delays (MSHR, DRAM queue, SFU) are the cycles the
// model claims multithreading cannot hide, so they must match the
// oracle's measured mshr/dram-queue stall share.
func (e *Evaluator) Stacks() (*report.Figure, error) {
	f := &report.Figure{
		ID:    "stacks",
		Title: "Model queueing share vs measured queueing stalls (round-robin, baseline config)",
		Headers: []string{"kernel",
			"model CPI", "oracle CPI",
			"queue share (model)", "queue share (oracle)",
			"bottleneck (model)", "bottleneck (oracle)", "agree"},
	}
	cfg := e.Baseline()
	agree := 0
	var gaps []float64
	for _, k := range stackKernels {
		ev, err := e.Eval(k, cfg, config.RR)
		if err != nil {
			return nil, err
		}
		bd := ev.OracleStalls

		mQueue := (ev.Stack[cpistack.MSHR] + ev.Stack[cpistack.Queue] + ev.Stack[cpistack.SFU]) / ev.Stack.CPI()
		oQueue := bd["mshr"] + bd["dram-queue"]

		classify := func(queueShare float64) string {
			if queueShare > 0.3 {
				return "queueing"
			}
			return "compute/latency"
		}
		mClass, oClass := classify(mQueue), classify(oQueue)
		if mClass == oClass {
			agree++
		}
		gap := mQueue - oQueue
		if gap < 0 {
			gap = -gap
		}
		gaps = append(gaps, gap)

		f.Rows = append(f.Rows, []string{k,
			report.F(ev.Full), report.F(ev.Oracle),
			report.Pct(mQueue), report.Pct(oQueue),
			mClass, oClass, boolYN(mClass == oClass),
		})
	}
	f.Rows = append(f.Rows, []string{"SUMMARY", "", "", "", "", "", "",
		report.Pct(float64(agree) / float64(len(stackKernels)))})
	f.Notes = append(f.Notes,
		"queue share = (MSHR+QUEUE+SFU)/CPI for the model; (mshr+dram-queue) stall fraction for the oracle",
		"mean absolute queue-share gap: "+report.Pct(stats.Mean(gaps)),
		"BASE/DEP/L1/L2/DRAM are not directly comparable: the paper scales the single-warp stall mix to show relative importance, while the oracle only observes the (mostly hidden) lost cycles")
	return f, nil
}

func boolYN(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
