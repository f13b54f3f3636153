package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpumech/internal/isa"
)

// Columnar warp storage. Instead of a []Rec — where every record is a
// 40-byte struct and every global-memory record carries its own []uint64
// allocation — a ColWarp keeps one compact byte stream per field:
//
//	pc      delta-encoded (zigzag varint) static PCs; traces revisit
//	        nearby PCs, so deltas are tiny
//	op      one byte per record (isa.Op is a uint8)
//	mem     one byte per record (isa.MemType)
//	nsrc    one byte per record (source-operand count, <= 4)
//	dst     one byte per record (isa.Reg; 0xFF = RegNone)
//	srcs    NumSrcs bytes per record, concatenated (the RegNone padding
//	        of Rec.Srcs is implicit and restored on decode)
//	mask    run-length encoded (varint run length, varint mask value);
//	        the common all-lanes-active case costs two varints per run
//	nlines  for each global-memory record, varint count of coalesced lines
//	lines   per global-memory record: first line absolute, then deltas
//	        (varints; lines are sorted strictly ascending, so deltas are
//	        positive and small for coalesced access patterns)
//
// This layout is both the on-disk format (see serialize.go) and the only
// in-memory representation: ColCursor decodes records one at a time into
// a reusable buffer, so consumers never materialize a []Rec.
type ColWarp struct {
	n        int // record count
	memInsts int // global-memory records
	memReqs  int // total coalesced line requests

	pc, op, mem, nsrc, dst, srcs, mask, nlines, lines []byte
}

// Insts returns the number of records.
func (c *ColWarp) Insts() int { return c.n }

// GlobalMemInsts returns the number of global-memory records.
func (c *ColWarp) GlobalMemInsts() int { return c.memInsts }

// GlobalMemReqs returns the total number of coalesced line requests.
func (c *ColWarp) GlobalMemReqs() int { return c.memReqs }

// SizeBytes returns the encoded footprint of the column streams.
func (c *ColWarp) SizeBytes() int {
	return len(c.pc) + len(c.op) + len(c.mem) + len(c.nsrc) + len(c.dst) +
		len(c.srcs) + len(c.mask) + len(c.nlines) + len(c.lines)
}

func zigzag(d int64) uint64   { return uint64((d << 1) ^ (d >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ColBuilder appends records to a warp's column streams. It is the sink-
// side encoder: the emulator feeds it records as they execute, so the
// serialize path never holds an intermediate []Rec.
type ColBuilder struct {
	cw      ColWarp
	prevPC  int64
	maskVal uint32
	maskRun uint64
}

// Append encodes one record onto the column streams. The record (and its
// Lines slice) may be reused by the caller after the call returns. Records
// the format cannot represent losslessly — more than four sources, source
// padding that is not RegNone, lines on a non-global record, or lines not
// strictly ascending — are rejected with an error.
func (b *ColBuilder) Append(r *Rec) error {
	if int(r.NumSrcs) > len(r.Srcs) {
		return fmt.Errorf("trace: record has %d sources (max %d)", r.NumSrcs, len(r.Srcs))
	}
	for i := int(r.NumSrcs); i < len(r.Srcs); i++ {
		if r.Srcs[i] != isa.RegNone {
			return fmt.Errorf("trace: record source padding at %d is %d, want RegNone", i, r.Srcs[i])
		}
	}
	if !r.Op.IsGlobal() && len(r.Lines) != 0 {
		return fmt.Errorf("trace: non-global record (op %s) carries %d lines", r.Op, len(r.Lines))
	}

	b.cw.pc = binary.AppendUvarint(b.cw.pc, zigzag(int64(r.PC)-b.prevPC))
	b.prevPC = int64(r.PC)
	b.cw.op = append(b.cw.op, byte(r.Op))
	b.cw.mem = append(b.cw.mem, byte(r.Mem))
	b.cw.nsrc = append(b.cw.nsrc, r.NumSrcs)
	b.cw.dst = append(b.cw.dst, byte(r.Dst))
	for i := 0; i < int(r.NumSrcs); i++ {
		b.cw.srcs = append(b.cw.srcs, byte(r.Srcs[i]))
	}

	if b.maskRun > 0 && r.Mask == b.maskVal {
		b.maskRun++
	} else {
		b.flushMaskRun()
		b.maskVal = r.Mask
		b.maskRun = 1
	}

	if r.Op.IsGlobal() {
		b.cw.memInsts++
		b.cw.memReqs += len(r.Lines)
		b.cw.nlines = binary.AppendUvarint(b.cw.nlines, uint64(len(r.Lines)))
		prev := uint64(0)
		for i, line := range r.Lines {
			if i == 0 {
				b.cw.lines = binary.AppendUvarint(b.cw.lines, line)
			} else {
				if line <= prev {
					return fmt.Errorf("trace: record lines not strictly ascending (%#x after %#x)", line, prev)
				}
				b.cw.lines = binary.AppendUvarint(b.cw.lines, line-prev)
			}
			prev = line
		}
	}
	b.cw.n++
	return nil
}

func (b *ColBuilder) flushMaskRun() {
	if b.maskRun == 0 {
		return
	}
	b.cw.mask = binary.AppendUvarint(b.cw.mask, b.maskRun)
	b.cw.mask = binary.AppendUvarint(b.cw.mask, uint64(b.maskVal))
	b.maskRun = 0
}

// Finish seals the streams and returns the columnar warp, its streams
// packed into one exact-size allocation. The builder is left empty and may
// be reused for another warp; its streams keep their capacity as scratch,
// so a reused builder stops reallocating once it has seen its largest
// warp.
func (b *ColBuilder) Finish() ColWarp {
	b.flushMaskRun()
	src := &b.cw
	cw := ColWarp{n: src.n, memInsts: src.memInsts, memReqs: src.memReqs}
	buf := make([]byte, 0, src.SizeBytes())
	dst := cw.streams()
	for i, col := range src.streams() {
		if len(*col) > 0 { // a stream never written stays nil
			start := len(buf)
			buf = append(buf, *col...)
			*dst[i] = buf[start:len(buf):len(buf)]
		}
		*col = (*col)[:0]
	}
	// Reset every field but the emptied streams, which stay as scratch.
	*b = ColBuilder{cw: ColWarp{pc: src.pc, op: src.op, mem: src.mem, nsrc: src.nsrc, dst: src.dst,
		srcs: src.srcs, mask: src.mask, nlines: src.nlines, lines: src.lines}}
	return cw
}

// streams returns pointers to c's nine column streams, in format order.
func (c *ColWarp) streams() [9]*[]byte {
	return [9]*[]byte{&c.pc, &c.op, &c.mem, &c.nsrc, &c.dst, &c.srcs, &c.mask, &c.nlines, &c.lines}
}

// ColCursor decodes a ColWarp one record at a time into an internal
// reusable buffer — the bounded window of the streaming read path. The
// interval algorithm, the cache simulator and the timing oracle all read
// traces through it, so no consumer materializes a []Rec.
//
// The protocol: a fresh cursor is positioned before the first record.
// Next advances and reports whether a record is available; Rec returns the
// current record, which remains valid until the next Next call. After Next
// returns false, Err distinguishes clean exhaustion (nil) from a decode
// failure in the underlying stream. Next performs no allocations in
// steady state (the lines buffer grows to the most divergent record seen,
// then stays); the zero-alloc gate in the CI pins this.
type ColCursor struct {
	w   *ColWarp
	rec Rec
	err error
	idx int

	prevPC  int64
	pcOff   int
	srcOff  int
	maskOff int
	nlOff   int
	lnOff   int

	maskRun  uint64
	maskVal  uint32
	linesBuf []uint64
}

// Cursor returns a fresh cursor positioned before the first record.
func (c *ColWarp) Cursor() *ColCursor {
	cur := &ColCursor{w: c}
	cur.Reset()
	return cur
}

// ResetTo points the cursor at w, positioned before its first record. The
// cursor keeps its line buffer, so a reused cursor stops allocating once
// it has decoded its most divergent record.
func (c *ColCursor) ResetTo(w *ColWarp) {
	c.w = w
	c.Reset()
}

// Reset repositions the cursor before the first record.
func (c *ColCursor) Reset() {
	c.rec = Rec{}
	c.err = nil
	c.idx = 0
	c.prevPC = 0
	c.pcOff, c.srcOff, c.maskOff, c.nlOff, c.lnOff = 0, 0, 0, 0, 0
	c.maskRun, c.maskVal = 0, 0
	n := c.w.n
	if n < 0 || len(c.w.op) != n || len(c.w.mem) != n || len(c.w.nsrc) != n || len(c.w.dst) != n {
		c.fail("byte column lengths (op %d, mem %d, nsrc %d, dst %d) inconsistent with %d records",
			len(c.w.op), len(c.w.mem), len(c.w.nsrc), len(c.w.dst), n)
	}
}

func (c *ColCursor) fail(format string, args ...any) bool {
	if c.err == nil {
		c.err = fmt.Errorf("trace: columnar record %d: "+format, append([]any{c.idx}, args...)...)
	}
	return false
}

// uvarint decodes one varint from col at *off.
func (c *ColCursor) uvarint(col []byte, off *int, what string) (uint64, bool) {
	v, sz := binary.Uvarint(col[*off:])
	if sz <= 0 {
		c.fail("truncated or malformed %s varint", what)
		return 0, false
	}
	*off += sz
	return v, true
}

// Next decodes the next record. It returns false at the end of the warp or
// on a malformed stream; Err distinguishes the two. On clean exhaustion
// every column stream must have been consumed exactly — leftover bytes are
// reported as an error.
func (c *ColCursor) Next() bool {
	if c.err != nil {
		return false
	}
	w, idx := c.w, c.idx
	if idx >= w.n {
		if c.pcOff != len(w.pc) || c.srcOff != len(w.srcs) || c.maskOff != len(w.mask) ||
			c.nlOff != len(w.nlines) || c.lnOff != len(w.lines) || c.maskRun != 0 {
			return c.fail("column streams not fully consumed after %d records", w.n)
		}
		return false
	}

	// The two per-record varint streams call binary.Uvarint directly, which
	// the compiler inlines; a c.uvarint call per PC and per line costs
	// 10-20% of a full decode. Most PC deltas fit one byte, which is read
	// without the call.
	var d uint64
	if off := c.pcOff; off < len(w.pc) && w.pc[off] < 0x80 {
		d = uint64(w.pc[off])
		c.pcOff++
	} else {
		v, sz := binary.Uvarint(w.pc[off:])
		if sz <= 0 {
			return c.fail("truncated or malformed pc varint")
		}
		d = v
		c.pcOff += sz
	}
	pc := c.prevPC + unzigzag(d)
	if pc < math.MinInt32 || pc > math.MaxInt32 {
		return c.fail("pc %d outside int32 range", pc)
	}
	c.prevPC = pc
	c.rec.PC = int32(pc)
	c.rec.Op = isa.Op(w.op[idx])
	c.rec.Mem = isa.MemType(w.mem[idx])
	ns := w.nsrc[idx]
	if int(ns) > len(c.rec.Srcs) {
		return c.fail("source count %d exceeds %d", ns, len(c.rec.Srcs))
	}
	if c.srcOff+int(ns) > len(w.srcs) {
		return c.fail("source column truncated (need %d bytes at offset %d of %d)", ns, c.srcOff, len(w.srcs))
	}
	c.rec.NumSrcs = ns
	srcs := [len(c.rec.Srcs)]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone, isa.RegNone}
	for i, r := range w.srcs[c.srcOff : c.srcOff+int(ns)] {
		srcs[i] = isa.Reg(r)
	}
	c.rec.Srcs = srcs
	c.srcOff += int(ns)
	c.rec.Dst = isa.Reg(w.dst[idx])

	if c.maskRun == 0 {
		run, ok := c.uvarint(w.mask, &c.maskOff, "mask run")
		if !ok {
			return false
		}
		if run == 0 {
			return c.fail("zero-length mask run")
		}
		v, ok := c.uvarint(w.mask, &c.maskOff, "mask value")
		if !ok {
			return false
		}
		if v > math.MaxUint32 {
			return c.fail("mask value %#x exceeds 32 bits", v)
		}
		c.maskRun, c.maskVal = run, uint32(v)
	}
	c.maskRun--
	c.rec.Mask = c.maskVal

	c.rec.Lines = nil
	if c.rec.Op.IsGlobal() {
		cnt, ok := c.uvarint(w.nlines, &c.nlOff, "line count")
		if !ok {
			return false
		}
		// Every line consumes at least one byte of the lines column, so a
		// count beyond the remaining bytes is malformed (and must not
		// drive a huge allocation).
		if cnt > uint64(len(w.lines)-c.lnOff) {
			return c.fail("line count %d exceeds remaining column bytes %d", cnt, len(w.lines)-c.lnOff)
		}
		if cap(c.linesBuf) < int(cnt) {
			c.linesBuf = make([]uint64, cnt)
		}
		c.linesBuf = c.linesBuf[:cnt]
		prev := uint64(0)
		for i := 0; i < int(cnt); i++ {
			v, sz := binary.Uvarint(w.lines[c.lnOff:])
			if sz <= 0 {
				return c.fail("truncated or malformed line varint")
			}
			c.lnOff += sz
			line := v
			if i > 0 {
				line = prev + v
				if line <= prev {
					return c.fail("line delta %d does not ascend from %#x", v, prev)
				}
			}
			c.linesBuf[i] = line
			prev = line
		}
		if cnt > 0 {
			c.rec.Lines = c.linesBuf
		}
	}

	c.idx = idx + 1
	return true
}

// Rec returns the current record. The record — including its Lines slice —
// is only valid until the next call to Next.
func (c *ColCursor) Rec() *Rec { return &c.rec }

// Err reports the first decode error, or nil after clean exhaustion.
func (c *ColCursor) Err() error { return c.err }
