package trace

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"gpumech/internal/isa"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	k := makeKernelWith(t, 3, 2, 5, func(w, i int, r *Rec) {
		if w == 0 && i == 1 {
			*r = Rec{PC: 0, Op: isa.OpLdG, Dst: 1, Mask: 0xFF,
				Lines: []uint64{0x1000, 0x2000}, Srcs: [4]isa.Reg{2, isa.RegNone, isa.RegNone, isa.RegNone}, NumSrcs: 1}
		}
	})

	var buf bytes.Buffer
	if err := k.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKernel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != k.Name || got.Blocks != k.Blocks || got.WarpsPerBlock != k.WarpsPerBlock {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if got.TotalInsts() != k.TotalInsts() {
		t.Errorf("instruction count mismatch")
	}
	recs, err := decodeRecs(&got.Warps[0].ColWarp)
	if err != nil {
		t.Fatal(err)
	}
	r := recs[1]
	if r.Op != isa.OpLdG || len(r.Lines) != 2 || r.Lines[1] != 0x2000 || r.Srcs[0] != 2 {
		t.Errorf("record lost data: %+v", r)
	}
	if len(got.Prog.Instrs) != len(k.Prog.Instrs) {
		t.Error("program lost")
	}
}

func TestSaveLoad(t *testing.T) {
	k := makeKernel(t, 2, 2, 4)
	path := filepath.Join(t.TempDir(), "trace.gob.gz")
	if err := k.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalInsts() != k.TotalInsts() {
		t.Error("round trip via file lost records")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadKernelRejectsGarbage(t *testing.T) {
	if _, err := ReadKernel(strings.NewReader("not a gzip stream")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadKernelValidates(t *testing.T) {
	k := makeKernelWith(t, 1, 1, 2, func(w, i int, r *Rec) {
		if i == 0 {
			r.PC = 99 // invalid
		}
	})
	var buf bytes.Buffer
	if err := k.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadKernel(&buf); err == nil {
		t.Error("invalid kernel passed load-time validation")
	}
}
