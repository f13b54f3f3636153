package emu_test

import (
	"reflect"
	"slices"
	"testing"

	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/trace"
)

// recordingSink is a trace.Sink that keeps a copy of every record the
// emulator emits, grouped by warp in launch order.
type recordingSink struct {
	warpsPerBlock int
	block         int
	warps         [][]trace.Rec
}

func (s *recordingSink) BeginBlock(b int) {
	s.block = b
	for len(s.warps) < (b+1)*s.warpsPerBlock {
		s.warps = append(s.warps, nil)
	}
}

func (s *recordingSink) Emit(w int, r *trace.Rec) error {
	rec := *r
	rec.Lines = slices.Clone(r.Lines)
	i := s.block*s.warpsPerBlock + w
	s.warps[i] = append(s.warps[i], rec)
	return nil
}

func (s *recordingSink) EndBlock() error { return nil }

// TestTraceKeepsEveryEmittedRecord is the reference for the column
// encoding: for every bundled kernel at a small grid, each record the
// sequential emulator emits must equal, field by field and Lines
// included, the record ColCursor decodes at the same position of Run's
// trace, and no warp may gain or lose a record.
func TestTraceKeepsEveryEmittedRecord(t *testing.T) {
	for _, name := range kernels.Names() {
		info, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		launch := func() emu.Launch {
			l, err := info.EmuLaunch(kernels.Scale{Blocks: 8, Seed: 1}, 128)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		l := launch()
		sink := &recordingSink{warpsPerBlock: l.ThreadsPerBlock / 32}
		if err := emu.RunSink(l, sink); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, err := emu.Run(launch())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(k.Warps) != len(sink.warps) {
			t.Fatalf("%s: trace has %d warps, emulator emitted %d", name, len(k.Warps), len(sink.warps))
		}
		for i, w := range k.Warps {
			want := sink.warps[i]
			cur := w.Cursor()
			n := 0
			for ; cur.Next(); n++ {
				if n >= len(want) {
					continue
				}
				got, exp := *cur.Rec(), want[n]
				if !slices.Equal(got.Lines, exp.Lines) {
					t.Fatalf("%s warp %d rec %d: lines %v, emitted %v", name, i, n, got.Lines, exp.Lines)
				}
				got.Lines, exp.Lines = nil, nil
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s warp %d rec %d: decoded %+v, emitted %+v", name, i, n, got, exp)
				}
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("%s warp %d: %v", name, i, err)
			}
			if n != len(want) || w.Insts() != n {
				t.Fatalf("%s warp %d: decoded %d records (summary %d), emulator emitted %d", name, i, n, w.Insts(), len(want))
			}
		}
	}
}
