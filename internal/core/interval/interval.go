// Package interval implements GPUMech's interval algorithm (Section III-B
// of the paper): it traverses a warp's instruction trace assuming in-order
// execution at the configured issue rate, resolves register dependencies
// against per-PC instruction latencies, and partitions the trace into
// intervals — runs of instructions issued back-to-back followed by stall
// cycles (Eq. 2, Eq. 4).
//
// Each interval also records the inputs the multi-warp and contention
// models need: the number of memory instructions, the expected number of
// MSHR-allocating requests, the expected DRAM traffic, and the stall cause
// for CPI-stack attribution.
package interval

import (
	"fmt"
	"math"

	"gpumech/internal/isa"
	"gpumech/internal/trace"
)

// PCTable carries the per-static-instruction data the interval algorithm
// needs, produced by the input collector (cache simulator + configuration).
// All slices are indexed by PC; missing entries fall back to zero.
type PCTable struct {
	// Latency is the instruction latency per PC: the fixed class latency
	// for compute PCs and the AMAT for memory PCs (Section V-B).
	Latency []float64

	// L1MissRate is, per load PC, the fraction of coalesced read requests
	// that miss the L1 and therefore allocate an MSHR entry.
	L1MissRate []float64

	// L2MissRate is, per load PC, the fraction of coalesced read requests
	// that miss both L1 and L2 and therefore consume DRAM bandwidth.
	L2MissRate []float64

	// DistL1, DistL2, DistDRAM give the instruction-level miss-event
	// distribution per load PC, used for CPI-stack attribution.
	DistL1, DistL2, DistDRAM []float64

	// MergeWindow models MSHR merging: a line touched again within this
	// many cycles of a previous touch merges into the in-flight miss and
	// neither allocates an MSHR nor re-reaches DRAM. Set it to the
	// average miss latency; zero disables merging.
	MergeWindow float64
}

func at(s []float64, pc int) float64 {
	if pc < 0 || pc >= len(s) {
		return 0
	}
	return s[pc]
}

// LatencyOf returns the latency of pc with a 1-cycle floor.
func (t *PCTable) LatencyOf(pc int) float64 {
	if l := at(t.Latency, pc); l >= 1 {
		return l
	}
	return 1
}

// Interval is one entry of an interval profile: Insts instructions issued
// back-to-back, followed by StallCycles cycles in which the warp cannot
// issue (Eq. 2).
type Interval struct {
	Insts       int
	StallCycles float64

	// MemInsts is the number of global load instructions in the interval
	// (the #warp_mem_insts term of Eq. 20). Stores never stall the warp
	// and do not allocate MSHRs, so they are excluded.
	MemInsts int

	// MSHRReqs is the expected number of MSHR-allocating requests the
	// warp issues in the interval: coalesced read requests weighted by
	// their L1 miss rate (the #warp_mem_reqs term of Eq. 18).
	MSHRReqs float64

	// DRAMReqs is the expected number of requests reaching DRAM: read
	// requests weighted by their L2 miss rate plus all write-through
	// store requests (the traffic term of Eq. 23).
	DRAMReqs float64

	// MSHRLoadInsts is the expected number of load instructions whose
	// worst request misses the L1 — the loads that actually wait on MSHR
	// entries. The paper's Eq. 20 multiplies the expected queueing delay
	// by the raw memory-instruction count; weighting by the L1 miss
	// probability keeps L1-resident loads from being charged MSHR delays
	// (consistent with the paper's own kmeans discussion in Section VII).
	MSHRLoadInsts float64

	// DRAMLoadInsts is the expected number of load instructions whose
	// worst request reaches DRAM — the loads that wait in the DRAM queue.
	DRAMLoadInsts float64

	// SFUInsts counts special-function-unit instructions, consumed by the
	// optional SFU-contention extension (config.SFUPerCore).
	SFUInsts int

	// Stall attribution for CPI stacks (Section VII): the PC and class of
	// the instruction whose completion bounded the issue of the next
	// interval. CausePC is -1 when StallCycles is zero.
	CausePC    int
	CauseClass isa.Class
}

// Profile is the interval profile of one warp (Eq. 2).
type Profile struct {
	Intervals []Interval
	Insts     int     // total instructions
	Stall     float64 // total stall cycles
	IssueRate float64
}

// TotalCycles returns the single-warp execution time: issue cycles plus
// stall cycles (the denominator of Eq. 5).
func (p *Profile) TotalCycles() float64 {
	return float64(p.Insts)/p.IssueRate + p.Stall
}

// WarpPerf returns the IPC of the warp running alone on a core (Eq. 5).
func (p *Profile) WarpPerf() float64 {
	if p.Insts == 0 {
		return 0
	}
	return float64(p.Insts) / p.TotalCycles()
}

// IssueProb returns the probability that the warp can issue an instruction
// in a cycle (Eq. 9). With an issue rate of 1 it equals WarpPerf.
func (p *Profile) IssueProb() float64 {
	if p.Insts == 0 {
		return 0
	}
	return float64(p.Insts) / p.TotalCycles()
}

// AvgIntervalInsts returns the average instructions per interval (Eq. 13).
func (p *Profile) AvgIntervalInsts() float64 {
	if len(p.Intervals) == 0 {
		return 0
	}
	return float64(p.Insts) / float64(len(p.Intervals))
}

// CPI returns the single-warp cycles per instruction.
func (p *Profile) CPI() float64 {
	if p.Insts == 0 {
		return 0
	}
	return p.TotalCycles() / float64(p.Insts)
}

// Build runs the interval algorithm over one warp trace.
//
// Issue cycles follow Eq. 4: an instruction issues one cycle after its
// predecessor unless a source operand is still in flight, in which case it
// issues the cycle after the producer's done cycle. A gap in issue cycles
// closes the current interval and starts a new one. numRegs must cover the
// unified register namespace used by the trace (general + predicate
// registers).
func Build(w *trace.WarpTrace, numRegs int, issueRate float64, t *PCTable) (*Profile, error) {
	return BuildCursor(w.Cursor(), numRegs, issueRate, t)
}

// BuildCursor runs the interval algorithm over a streamed record cursor.
// It is the O(window) form of Build: instead of a completion-cycle slice
// indexed by record (O(trace length)), it keeps one done-cycle, PC, and
// class per architectural register — the only look-back the in-order RAW
// model ever needs, since a register's live producer is its last writer.
// Peak memory is therefore O(numRegs) plus the cursor's decode window,
// independent of how long the trace is.
func BuildCursor(cur *trace.ColCursor, numRegs int, issueRate float64, t *PCTable) (*Profile, error) {
	p, _, err := buildCursor(cur, numRegs, issueRate, t, true)
	return p, err
}

// Summarize runs Build's algorithm without keeping the intervals. The
// profile's Insts, Stall and IssueRate are Build's to the bit, so
// WarpPerf, IssueProb and representative-warp selection agree with a
// full profile's; Intervals is nil, and n is how many Build would hold.
// Summarizing every warp and building only the representatives skips
// allocating thousands of interval lists that selection never reads.
func Summarize(w *trace.WarpTrace, numRegs int, issueRate float64, t *PCTable) (p *Profile, n int, err error) {
	return buildCursor(w.Cursor(), numRegs, issueRate, t, false)
}

// buildCursor is BuildCursor, keeping the intervals only when keep is
// set; n counts them either way.
func buildCursor(cur *trace.ColCursor, numRegs int, issueRate float64, t *PCTable, keep bool) (p *Profile, n int, err error) {
	if issueRate <= 0 {
		return nil, 0, fmt.Errorf("interval: issue rate must be positive, got %g", issueRate)
	}
	if t == nil {
		return nil, 0, fmt.Errorf("interval: nil PC table")
	}
	p = &Profile{IssueRate: issueRate}

	issueStep := 1.0 / issueRate
	// Per-register last-writer state. A source never written keeps the
	// -Inf done cycle and can never bound an issue, mirroring DepTracker's
	// "omit sources never written" rule.
	regDone := make([]float64, numRegs)
	for i := range regDone {
		regDone[i] = math.Inf(-1)
	}
	regPC := make([]int32, numRegs)
	regClass := make([]isa.Class, numRegs)

	iv := Interval{CausePC: -1}
	var lineLast map[uint64]float64
	if t.MergeWindow > 0 {
		lineLast = make(map[uint64]float64)
	}
	prevIssue := -issueStep // so the first instruction issues at cycle 0
	i := 0
	for cur.Next() {
		r := cur.Rec()
		earliest := prevIssue + issueStep
		bound := -1 // register whose producer bounds the issue, if any
		for _, s := range r.SrcRegs() {
			if s == isa.RegNone || int(s) >= numRegs {
				continue
			}
			if d := regDone[s]; d+issueStep > earliest {
				earliest = d + issueStep
				bound = int(s)
			}
		}

		if i > 0 && earliest > prevIssue+issueStep+1e-9 {
			// Stall detected: close the current interval.
			iv.StallCycles = earliest - (prevIssue + issueStep)
			if bound >= 0 {
				iv.CausePC = int(regPC[bound])
				iv.CauseClass = regClass[bound]
			}
			if keep {
				p.Intervals = append(p.Intervals, iv)
			}
			n++
			p.Stall += iv.StallCycles
			iv = Interval{CausePC: -1}
		}

		iv.Insts++
		p.Insts++
		pc := int(r.PC)
		if r.Op == isa.OpLdG {
			iv.MemInsts++
			// Requests to lines with an in-flight miss merge into the
			// existing MSHR entry (no allocation, no DRAM traffic).
			reqs := float64(r.NumReqs())
			if lineLast != nil {
				fresh := 0
				for _, line := range r.Lines {
					if last, seen := lineLast[line]; !seen || earliest-last > t.MergeWindow {
						fresh++
					}
					lineLast[line] = earliest
				}
				reqs = float64(fresh)
			}
			iv.MSHRReqs += reqs * at(t.L1MissRate, pc)
			iv.DRAMReqs += reqs * at(t.L2MissRate, pc)
			iv.MSHRLoadInsts += at(t.DistL2, pc) + at(t.DistDRAM, pc)
			iv.DRAMLoadInsts += at(t.DistDRAM, pc)
		} else if r.Op == isa.OpStG {
			iv.DRAMReqs += float64(r.NumReqs())
		} else if r.Op.Class() == isa.ClassSFU {
			iv.SFUInsts++
		}

		if r.Dst != isa.RegNone && int(r.Dst) < numRegs {
			lat := t.LatencyOf(pc)
			if r.Op == isa.OpStG {
				lat = 1 // stores complete at issue for dependency purposes
			}
			regDone[r.Dst] = earliest + lat
			regPC[r.Dst] = r.PC
			regClass[r.Dst] = r.Op.Class()
		}
		prevIssue = earliest
		i++
	}
	if err := cur.Err(); err != nil {
		return nil, 0, fmt.Errorf("interval: %w", err)
	}
	// The trailing instructions form the final interval with no stall.
	if iv.Insts > 0 {
		if keep {
			p.Intervals = append(p.Intervals, iv)
		}
		n++
	}
	return p, n, nil
}

// Validate checks the internal consistency of a profile: instruction and
// stall totals must match the per-interval sums.
func (p *Profile) Validate() error {
	insts, stall := 0, 0.0
	for i, iv := range p.Intervals {
		if iv.Insts <= 0 {
			return fmt.Errorf("interval: interval %d has %d instructions", i, iv.Insts)
		}
		if iv.StallCycles < 0 {
			return fmt.Errorf("interval: interval %d has negative stall %g", i, iv.StallCycles)
		}
		if iv.StallCycles > 0 && iv.CausePC < 0 && i != len(p.Intervals)-1 {
			return fmt.Errorf("interval: interval %d stalls with no cause", i)
		}
		insts += iv.Insts
		stall += iv.StallCycles
	}
	if insts != p.Insts {
		return fmt.Errorf("interval: instruction total %d != sum of intervals %d", p.Insts, insts)
	}
	if diff := stall - p.Stall; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("interval: stall total %g != sum of intervals %g", p.Stall, stall)
	}
	return nil
}
