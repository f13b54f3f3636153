package gpumech

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"gpumech/internal/core/interval"
	"gpumech/internal/isa"
	"gpumech/internal/kernels"
	"gpumech/internal/trace"
)

// benchTraceDoc is the schema of BENCH_trace.json: the headline numbers
// of the v2 trace format, measured on a real kernel trace. CI writes it
// as a build artifact (set GPUMECH_BENCH_OUT to a path); EXPERIMENTS.md
// records a blessed copy.
type benchTraceDoc struct {
	Kernel  string `json:"kernel"`
	Blocks  int    `json:"blocks"`
	Records int64  `json:"records"`

	// On-disk footprint (gzip-compressed, bytes).
	SizeColumnar int `json:"sizeColumnarBytes"`

	// Full-file encode/decode wall time (ns per file).
	EncodeColumnarNs int64 `json:"encodeColumnarNs"`
	DecodeColumnarNs int64 `json:"decodeColumnarNs"`

	// Interval-algorithm footprint per Build call over a columnar warp:
	// flat bytes/op across a 100x record range is the O(window) proof.
	IntervalBuild []intervalBuildPoint `json:"intervalBuild"`

	// End-to-end: session construction (trace acquisition included) plus
	// one full estimate, from the emulator vs from a trace file.
	EvaluateEmulateNs int64 `json:"evaluateFromEmulatorNs"`
	EvaluateColFileNs int64 `json:"evaluateFromColumnarFileNs"`
}

type intervalBuildPoint struct {
	Records     int   `json:"records"`
	BytesPerOp  int64 `json:"bytesPerOp"`
	AllocsPerOp int64 `json:"allocsPerOp"`
}

// TestWriteBenchTrace measures the trace-format benchmarks and writes
// BENCH_trace.json to $GPUMECH_BENCH_OUT. Without the variable it skips:
// plain test runs must not spend benchmark time.
func TestWriteBenchTrace(t *testing.T) {
	out := os.Getenv("GPUMECH_BENCH_OUT")
	if out == "" {
		t.Skip("set GPUMECH_BENCH_OUT=path to write BENCH_trace.json")
	}

	const kernel = "rodinia_cfd_compute_flux"
	const blocks = 128
	info, err := kernels.Get(kernel)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := info.Trace(kernels.Scale{Blocks: blocks, Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}

	var colBuf bytes.Buffer
	if err := tr.Encode(&colBuf); err != nil {
		t.Fatal(err)
	}

	doc := benchTraceDoc{
		Kernel:       kernel,
		Blocks:       blocks,
		Records:      tr.TotalInsts(),
		SizeColumnar: colBuf.Len(),
	}

	nsPerOp := func(f func(b *testing.B)) int64 {
		return testing.Benchmark(f).NsPerOp()
	}
	doc.EncodeColumnarNs = nsPerOp(func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := tr.Encode(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.DecodeColumnarNs = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := trace.ReadKernel(bytes.NewReader(colBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Interval memory independence. The look-back state must be O(window):
	// a stall-free synthetic warp (no instruction reads a register) keeps
	// the profile itself at one interval, so any growth in bytes/op with
	// trace length would expose record-indexed state. Real warps allocate
	// proportionally to their *output* (one Interval per stall), which is
	// inherent and not what this measures.
	tbl := &interval.PCTable{Latency: []float64{1, 8}}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		var cb trace.ColBuilder
		for i := 0; i < n; i++ {
			r := trace.Rec{PC: 0, Op: isa.OpMovI, Dst: isa.Reg(2 + i%4), Mask: 0xFFFFFFFF,
				Srcs: [4]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone, isa.RegNone}}
			if i%8 == 0 {
				r.PC, r.Op, r.Mem = 1, isa.OpLdG, isa.MemF32
				r.Lines = []uint64{uint64(i) * 128}
			}
			if err := cb.Append(&r); err != nil {
				t.Fatal(err)
			}
		}
		w := &trace.WarpTrace{ColWarp: cb.Finish()}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := interval.Build(w, 16, 1, tbl); err != nil {
					b.Fatal(err)
				}
			}
		})
		doc.IntervalBuild = append(doc.IntervalBuild, intervalBuildPoint{
			Records:     w.Insts(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		})
	}

	// End-to-end: trace acquisition + full estimate.
	dir := t.TempDir()
	colPath := dir + "/col.trace"
	smallInfo, err := kernels.Get("rodinia_srad1")
	if err != nil {
		t.Fatal(err)
	}
	smallTr, err := smallInfo.Trace(kernels.Scale{Blocks: DefaultBlocks(smallInfo.WarpsPerBlock), Seed: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := smallTr.Save(colPath); err != nil {
		t.Fatal(err)
	}
	estimate := func(b *testing.B, open func() (*Session, error)) {
		for i := 0; i < b.N; i++ {
			sess, err := open()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Estimate(DefaultConfig(), RR); err != nil {
				b.Fatal(err)
			}
		}
	}
	doc.EvaluateEmulateNs = nsPerOp(func(b *testing.B) {
		estimate(b, func() (*Session, error) { return NewSession("rodinia_srad1") })
	})
	doc.EvaluateColFileNs = nsPerOp(func(b *testing.B) {
		estimate(b, func() (*Session, error) { return NewSessionFromTraceFile(colPath) })
	})

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", out, data)
}
