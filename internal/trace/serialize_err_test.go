package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpumech/internal/isa"
)

// legacyPath is the one v1 (gob) trace kept in testdata: a must-reject
// input now that v2 is the only format.
var legacyPath = filepath.Join("testdata", "fuzz-seed.legacy.trace")

// legacyTrace returns the bytes of the v1 fixture.
func legacyTrace(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLegacyFormatRejected pins that a v1 gob trace, from a stream or a
// file, is an error that names the format the reader expects.
func TestLegacyFormatRejected(t *testing.T) {
	if _, err := ReadKernel(bytes.NewReader(legacyTrace(t))); err == nil || !strings.Contains(err.Error(), "not a v2 trace") {
		t.Errorf("ReadKernel of a v1 trace: err = %v, want a not-a-v2-trace error", err)
	}
	if _, err := Load(legacyPath); err == nil || !strings.Contains(err.Error(), "not a v2 trace") {
		t.Errorf("Load of a v1 trace: err = %v, want a not-a-v2-trace error", err)
	}
}

// TestStreamKeepsColumnarStorage pins that ReadKernel keeps each warp's
// column streams exactly as they were written, without re-encoding them.
func TestStreamKeepsColumnarStorage(t *testing.T) {
	k := makeKernel(t, 2, 2, 6)
	var buf bytes.Buffer
	if err := k.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKernel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range got.Warps {
		if !reflect.DeepEqual(w.ColWarp, k.Warps[i].ColWarp) {
			t.Fatalf("warp %d's column streams changed across a round trip", i)
		}
	}
}

// TestTrailingGarbageRejected pins that bytes after the logical end of a
// v2 stream are an error, including a second valid trace concatenated
// onto the first (gzip multistream), and that a v1 stream is rejected
// whatever follows it.
func TestTrailingGarbageRejected(t *testing.T) {
	k := makeKernel(t, 1, 2, 4)
	var v2 bytes.Buffer
	if err := k.Encode(&v2); err != nil {
		t.Fatal(err)
	}
	v1 := legacyTrace(t)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"columnar + raw bytes", append(append([]byte{}, v2.Bytes()...), "junk"...)},
		{"legacy + raw bytes", append(append([]byte{}, v1...), "junk"...)},
		{"columnar + columnar", append(append([]byte{}, v2.Bytes()...), v2.Bytes()...)},
		{"legacy + legacy", append(append([]byte{}, v1...), v1...)},
		{"legacy + columnar", append(append([]byte{}, v1...), v2.Bytes()...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadKernel(bytes.NewReader(tc.data)); err == nil {
				t.Error("trailing data accepted")
			}
		})
	}
	// Control: the unmodified v2 stream still decodes.
	if _, err := ReadKernel(bytes.NewReader(v2.Bytes())); err != nil {
		t.Errorf("clean columnar stream rejected: %v", err)
	}
}

// failAfter errors once more than limit bytes have been written — the
// disk-full simulator for the encode error paths.
type failAfter struct {
	limit   int
	written int
}

var errWriterFull = errors.New("writer full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		if n < 0 {
			n = 0
		}
		w.written = w.limit
		return n, errWriterFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestEncodeFailingWriter pins that a write error at any point in the
// stream — header, columns, or the final gzip flush — surfaces as an
// error from Encode instead of a silently truncated trace.
func TestEncodeFailingWriter(t *testing.T) {
	k := makeKernel(t, 4, 4, 200)
	var full bytes.Buffer
	if err := k.Encode(&full); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 10, full.Len() / 2, full.Len() - 1} {
		if err := k.Encode(&failAfter{limit: limit}); !errors.Is(err, errWriterFull) {
			t.Errorf("Encode with %d-byte writer: err = %v, want errWriterFull", limit, err)
		}
	}
}

// TestSaveAtomicOnError pins that a failed Save leaves neither a trace
// nor a stray temporary behind: the target is a non-empty directory, so
// the final rename fails after the trace was written in full.
func TestSaveAtomicOnError(t *testing.T) {
	k := makeKernel(t, 1, 1, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.trace")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.Save(path); err == nil {
		t.Fatal("Save over a non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "bad.trace" || !ents[0].IsDir() {
		t.Errorf("failed Save left files behind: %v", ents)
	}
}

func TestSaveMissingDirectory(t *testing.T) {
	k := makeKernel(t, 1, 1, 2)
	if err := k.Save(filepath.Join(t.TempDir(), "no", "such", "dir", "x.trace")); err == nil {
		t.Error("Save into a missing directory succeeded")
	}
}

// TestConvertRoundTripTestdata checks every checked-in trace file: each
// v2 file loads and round-trips through Save and Load to an equal kernel,
// and the v1 file is rejected.
func TestConvertRoundTripTestdata(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata traces found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			orig, err := Load(path)
			if path == legacyPath {
				if err == nil || !strings.Contains(err.Error(), "not a v2 trace") {
					t.Fatalf("v1 trace: err = %v, want a not-a-v2-trace error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			v2 := filepath.Join(t.TempDir(), "v2.trace")
			if err := orig.Save(v2); err != nil {
				t.Fatal(err)
			}
			got, err := Load(v2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(orig, got) {
				t.Error("round trip changed the kernel")
			}
		})
	}
}

func BenchmarkEncodeColumnar(b *testing.B) {
	k := benchKernel()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := k.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkDecodeColumnarStream(b *testing.B) {
	k := benchKernel()
	var buf bytes.Buffer
	if err := k.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := ReadKernel(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernel approximates a bundled kernel's trace shape: 64 warps, 2000
// records each, a global load every 6th record with mostly-coalesced
// lines.
func benchKernel() *Kernel {
	prog := &isa.Program{Name: "bench", NumRegs: 16, NumPreds: 2, Instrs: make([]isa.Instr, 8)}
	prog.Instrs[7] = isa.Instr{Op: isa.OpExit}
	k := &Kernel{Name: "bench", Prog: prog, Blocks: 16, WarpsPerBlock: 4, LineBytes: 128}
	for b := 0; b < 16; b++ {
		for w := 0; w < 4; w++ {
			var cb ColBuilder
			for i := 0; i < 2000; i++ {
				r := rec(i%7, isa.OpIAdd, isa.Reg(1+i%8), 2, 3)
				r.Mask = 0xFFFFFFFF
				if i%6 == 0 {
					base := uint64(b*1000+i) * 128
					r = Rec{PC: int32(i % 7), Op: isa.OpLdG, Dst: 3, Mask: 0xFFFFFFFF,
						Mem: isa.MemF32, Lines: []uint64{base, base + 128},
						Srcs: [4]isa.Reg{2, isa.RegNone, isa.RegNone, isa.RegNone}, NumSrcs: 1}
				}
				if err := cb.Append(&r); err != nil {
					panic(err)
				}
			}
			k.Warps = append(k.Warps, &WarpTrace{BlockID: b, WarpID: w, ColWarp: cb.Finish()})
		}
	}
	return k
}
