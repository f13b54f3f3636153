package trace

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gpumech/internal/isa"
)

// colRecs builds a record sequence that exercises every column: PC deltas
// in both directions (loop back-edges), long uniform mask runs and
// divergence, and global-memory records from fully-coalesced (one line)
// to fully-diverged (many ascending lines).
func colRecs() []Rec {
	var recs []Rec
	add := func(r Rec) {
		for i := int(r.NumSrcs); i < len(r.Srcs); i++ {
			r.Srcs[i] = isa.RegNone
		}
		recs = append(recs, r)
	}
	for iter := 0; iter < 3; iter++ { // a loop: PCs revisit, deltas go negative
		add(Rec{PC: 10, Op: isa.OpIAdd, Dst: 1, Srcs: [4]isa.Reg{2, 3}, NumSrcs: 2, Mask: 0xFFFFFFFF})
		add(Rec{PC: 11, Op: isa.OpIMul, Dst: 2, Srcs: [4]isa.Reg{1, 1}, NumSrcs: 2, Mask: 0xFFFFFFFF})
		add(Rec{PC: 12, Op: isa.OpLdG, Dst: 3, Srcs: [4]isa.Reg{2}, NumSrcs: 1, Mem: isa.MemF32,
			Mask: 0xFFFFFFFF, Lines: []uint64{uint64(iter) * 4096}})
	}
	// Divergence: distinct masks, no run sharing.
	add(Rec{PC: 13, Op: isa.OpMov, Dst: 4, Srcs: [4]isa.Reg{3}, NumSrcs: 1, Mask: 0x0000FFFF})
	add(Rec{PC: 14, Op: isa.OpMov, Dst: 5, Srcs: [4]isa.Reg{3}, NumSrcs: 1, Mask: 0xFFFF0000})
	// Fully diverged store: one line per active lane.
	diverged := make([]uint64, 32)
	for i := range diverged {
		diverged[i] = uint64(i) * 131072
	}
	add(Rec{PC: 15, Op: isa.OpStG, Dst: isa.RegNone, Srcs: [4]isa.Reg{4, 5}, NumSrcs: 2,
		Mem: isa.MemF32, Mask: 0xFFFFFFFF, Lines: diverged})
	// Zero-source and zero-mask records.
	add(Rec{PC: 16, Op: isa.OpMovI, Dst: 6, NumSrcs: 0, Mask: 0})
	add(Rec{PC: 2, Op: isa.OpExit, Dst: isa.RegNone, NumSrcs: 0, Mask: 0xFFFFFFFF})
	return recs
}

func TestColRoundTrip(t *testing.T) {
	recs := colRecs()
	cw := encodeRecs(t, recs)
	if cw.Insts() != len(recs) {
		t.Fatalf("Insts = %d, want %d", cw.Insts(), len(recs))
	}
	if cw.GlobalMemInsts() != 4 || cw.GlobalMemReqs() != 3+32 {
		t.Fatalf("mem summary = %d insts / %d reqs, want 4 / 35", cw.GlobalMemInsts(), cw.GlobalMemReqs())
	}
	got, err := decodeRecs(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatalf("round trip changed records:\n want %+v\n  got %+v", recs, got)
	}
}

// TestColBuilderReuse finishes two warps on one builder: the first
// warp's packed streams must not share storage with the builder's
// scratch, and each warp must equal a fresh builder's encoding of it.
func TestColBuilderReuse(t *testing.T) {
	first := colRecs()
	second := colRecs()[2:7]
	var b ColBuilder
	finish := func(recs []Rec) *ColWarp {
		for i := range recs {
			if err := b.Append(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		cw := b.Finish()
		return &cw
	}
	cw1 := finish(first)
	cw2 := finish(second)
	for _, tc := range []struct {
		cw   *ColWarp
		recs []Rec
	}{{cw1, first}, {cw2, second}} {
		if want := encodeRecs(t, tc.recs); !reflect.DeepEqual(tc.cw, want) {
			t.Fatalf("reused builder encoded %+v, fresh builder %+v", tc.cw, want)
		}
		if n := tc.cw.SizeBytes(); n == 0 {
			t.Fatal("empty warp")
		}
	}
	if cap(cw1.pc) != len(cw1.pc) || cap(cw1.lines) != len(cw1.lines) {
		t.Error("packed streams carry spare capacity an append could write through")
	}
}

func TestColMaskRLECompact(t *testing.T) {
	recs := make([]Rec, 1000)
	for i := range recs {
		recs[i] = rec(i%3, isa.OpIAdd, 1, 2)
		recs[i].Mask = 0xFFFFFFFF
	}
	cw := encodeRecs(t, recs)
	// One uniform run: one varint run length + one varint value.
	if len(cw.mask) > 8 {
		t.Errorf("uniform mask column is %d bytes, want <= 8", len(cw.mask))
	}
	got, err := decodeRecs(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatal("RLE round trip changed records")
	}
}

func TestColBuilderRejectsMalformed(t *testing.T) {
	base := func() Rec {
		r := rec(0, isa.OpIAdd, 1, 2)
		return r
	}
	cases := []struct {
		name string
		mod  func(*Rec)
	}{
		{"too many sources", func(r *Rec) { r.NumSrcs = 5 }},
		{"non-RegNone padding", func(r *Rec) { r.Srcs[3] = 7 }},
		{"lines on non-global op", func(r *Rec) { r.Lines = []uint64{0} }},
		{"descending lines", func(r *Rec) {
			r.Op = isa.OpLdG
			r.Lines = []uint64{256, 128}
		}},
		{"duplicate lines", func(r *Rec) {
			r.Op = isa.OpLdG
			r.Lines = []uint64{128, 128}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			tc.mod(&r)
			var b ColBuilder
			if err := b.Append(&r); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

// TestColCursorCorruption mutates each column of a valid warp and checks
// the cursor reports an error rather than panicking or silently
// truncating. Mutations cover truncated streams, malformed varints,
// inconsistent lengths, and trailing bytes.
func TestColCursorCorruption(t *testing.T) {
	fresh := func() *ColWarp { return encodeRecs(t, colRecs()) }
	cases := []struct {
		name string
		mod  func(*ColWarp)
	}{
		{"pc truncated", func(c *ColWarp) { c.pc = c.pc[:len(c.pc)-1] }},
		{"pc trailing byte", func(c *ColWarp) { c.pc = append(c.pc, 0) }},
		{"pc unterminated varint", func(c *ColWarp) { c.pc[len(c.pc)-1] = 0x80 }},
		{"op column short", func(c *ColWarp) { c.op = c.op[:len(c.op)-1] }},
		{"mem column long", func(c *ColWarp) { c.mem = append(c.mem, 0) }},
		{"nsrc column short", func(c *ColWarp) { c.nsrc = c.nsrc[:1] }},
		{"dst column short", func(c *ColWarp) { c.dst = c.dst[:1] }},
		{"nsrc exceeds 4", func(c *ColWarp) { c.nsrc[0] = 5 }},
		{"srcs truncated", func(c *ColWarp) { c.srcs = c.srcs[:1] }},
		{"srcs trailing byte", func(c *ColWarp) { c.srcs = append(c.srcs, 0) }},
		{"mask truncated", func(c *ColWarp) { c.mask = c.mask[:1] }},
		{"mask zero run", func(c *ColWarp) { c.mask = []byte{0, 0} }},
		{"mask value over 32 bits", func(c *ColWarp) { c.mask = append([]byte{1}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01) }},
		{"mask trailing run", func(c *ColWarp) { c.mask = append(c.mask, 9, 9) }},
		{"nlines truncated", func(c *ColWarp) { c.nlines = nil }},
		{"line count overflows column", func(c *ColWarp) { c.nlines[0] = 0xF0; c.nlines = c.nlines[:1] }},
		{"lines truncated", func(c *ColWarp) { c.lines = c.lines[:1] }},
		{"lines trailing bytes", func(c *ColWarp) { c.lines = append(c.lines, 1, 1) }},
		{"line delta zero", func(c *ColWarp) {
			// Rebuild with two lines, then zero the second varint (delta 0
			// means a duplicate line, which must be rejected).
			r := Rec{PC: 0, Op: isa.OpLdG, Dst: 1, Mask: 1, Lines: []uint64{128, 256},
				Srcs: [4]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone, isa.RegNone}}
			*c = *encodeRecs(t, []Rec{r})
			c.lines[len(c.lines)-1] = 0
		}},
		{"negative record count", func(c *ColWarp) { c.n = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cw := fresh()
			tc.mod(cw)
			cur := cw.Cursor()
			n := 0
			for cur.Next() {
				n++
				if n > cw.n+1 {
					t.Fatal("cursor did not terminate")
				}
			}
			if cur.Err() == nil {
				t.Errorf("%s: corrupt warp decoded cleanly (%d records)", tc.name, n)
			}
		})
	}
}

func TestColCursorErrSticksAndStops(t *testing.T) {
	cw := encodeRecs(t, colRecs())
	cw.pc = cw.pc[:2] // fails partway through
	cur := cw.Cursor()
	for cur.Next() {
	}
	first := cur.Err()
	if first == nil {
		t.Fatal("no error on truncated pc column")
	}
	if cur.Next() {
		t.Error("Next returned true after error")
	}
	if cur.Err() != first {
		t.Error("error changed across calls")
	}
}

// TestColCursorResetTo points one cursor at warp after warp — away from
// a warp it left mid-stream, from a larger warp to smaller ones, and away
// from a decode error — and requires each pass to decode exactly what a
// fresh cursor decodes.
func TestColCursorResetTo(t *testing.T) {
	// large has more records, wider PC jumps (multi-byte varints) and more
	// lines per record than colRecs.
	var recs []Rec
	for i := 0; i < 300; i++ {
		r := Rec{PC: int32(i % 7 * 700), Op: isa.OpIAdd, Dst: isa.Reg(i % 9), Srcs: [4]isa.Reg{1, 2, 3},
			NumSrcs: uint8(i % 4), Mask: uint32(i/5) | 1}
		if i%5 == 0 {
			r.Op, r.Mem = isa.OpLdG, isa.MemF32
			for l := 0; l < 1+i%40; l++ {
				r.Lines = append(r.Lines, uint64(i*4096+l*129))
			}
		}
		for j := int(r.NumSrcs); j < len(r.Srcs); j++ {
			r.Srcs[j] = isa.RegNone
		}
		recs = append(recs, r)
	}
	large := encodeRecs(t, recs)
	small := encodeRecs(t, colRecs())
	tiny := encodeRecs(t, colRecs()[:4])
	broken := encodeRecs(t, colRecs())
	broken.pc = broken.pc[:2]

	cur := small.Cursor()
	for i := 0; i < 5 && cur.Next(); i++ { // leave small mid-stream
	}
	for step, w := range []*ColWarp{large, tiny, small, broken, large, small} {
		cur.ResetTo(w)
		if step == 4 {
			cur.Next() // leave large after one record, inside a mask run
			cur.ResetTo(tiny)
			w = tiny
		}
		var got []Rec
		for cur.Next() {
			r := *cur.Rec()
			r.Lines = slices.Clone(r.Lines)
			got = append(got, r)
		}
		want, wantErr := decodeRecs(w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: re-pointed cursor decoded %d records unlike a fresh cursor's %d", step, len(got), len(want))
		}
		if fmt.Sprint(cur.Err()) != fmt.Sprint(wantErr) {
			t.Errorf("step %d: error %v, fresh cursor %v", step, cur.Err(), wantErr)
		}
	}
	// The line buffer survives re-pointing: a warp no more divergent than
	// one already decoded decodes without allocating.
	if avg := testing.AllocsPerRun(20, func() {
		cur.ResetTo(large)
		for cur.Next() {
		}
	}); avg != 0 {
		t.Errorf("decoding after ResetTo allocates %.1f times per pass, want 0", avg)
	}
}

func TestValidateCatchesColSummaryMismatch(t *testing.T) {
	k := makeKernel(t, 1, 1, 3)
	k.Warps[0].memInsts++ // lie about the summary
	if err := k.Validate(); err == nil {
		t.Error("column summary mismatch not caught")
	}
}

// TestCursorNextZeroAlloc is the allocation gate for the streaming read
// path: after warm-up (the lines buffer grows to the most divergent record
// seen), a full pass over the cursor performs zero allocations.
func TestCursorNextZeroAlloc(t *testing.T) {
	colCur := encodeRecs(t, colRecs()).Cursor()
	for colCur.Next() {
	}
	if err := colCur.Err(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		colCur.Reset()
		for colCur.Next() {
		}
	}); avg != 0 {
		t.Errorf("ColCursor.Next allocates %.1f times per pass, want 0", avg)
	}
}
