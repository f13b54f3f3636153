package memory

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// readSet returns the first address of every 64-byte chunk o recorded
// as read, sorted.
func readSet(o *Overlay) []uint64 {
	o.flushReads()
	var out []uint64
	for k, chunks := range o.reads {
		for c := 0; c < 64; c++ {
			if chunks&(1<<c) != 0 {
				out = append(out, k<<pageBits+uint64(c)<<chunkBits)
			}
		}
	}
	slices.Sort(out)
	return out
}

// writtenSet returns the addresses of every byte o recorded as written,
// sorted.
func writtenSet(o *Overlay) []uint64 {
	var out []uint64
	for k, p := range o.own {
		for i := 0; i < pageSize; i++ {
			if p.written[i>>6]&(1<<(i&63)) != 0 {
				out = append(out, k<<pageBits+uint64(i))
			}
		}
	}
	slices.Sort(out)
	return out
}

func span(lo, n uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = lo + uint64(i)
	}
	return out
}

func TestOverlayReadsFallThroughWritesStayPrivate(t *testing.T) {
	base := New()
	base.SetI32(0x1000, 11)
	base.SetI32(0x1004, 22)
	o := NewOverlay(base, true)

	if got := o.Read(0x1000, 4); got != 11 {
		t.Fatalf("read through = %d, want 11", got)
	}
	if got := o.Read(0x9000, 8); got != 0 {
		t.Fatalf("read of a page nobody wrote = %d, want 0", got)
	}
	o.Write(0x1000, 4, 99)
	o.Write(0x5000, 4, 7)
	if got := o.Read(0x1000, 4); got != 99 {
		t.Errorf("overlay sees %d after its own write, want 99", got)
	}
	if got := o.Read(0x1004, 4); got != 22 {
		t.Errorf("unwritten byte of a copied page = %d, want the base's 22", got)
	}
	if got := o.Read(0x5000, 4); got != 7 {
		t.Errorf("overlay sees %d on a page only it has, want 7", got)
	}
	if got := base.I32(0x1000); got != 11 {
		t.Errorf("base changed to %d before Commit, want 11", got)
	}
	if base.Footprint() != pageSize {
		t.Errorf("base footprint %d before Commit, want one page", base.Footprint())
	}
}

func TestOverlayRecordsExactSets(t *testing.T) {
	base := New()
	base.SetI64(0x3000, -1)
	o := NewOverlay(base, true)
	o.Read(0x1008, 4)     // chunk 0x1000
	o.Read(0x103e, 4)     // crosses chunks 0x1000 and 0x1040
	o.Read(0x4ffe, 4)     // crosses pages: chunks 0x4fc0 and 0x5000
	o.Write(0x9000, 8, 1) // page 9, written only
	o.Write(0x2ffd, 4, 2) // crosses pages 2 and 3
	o.writeBytes(0x3010, make([]byte, 3))
	o.Read(0x9000, 1) // page 9, now read too
	o.Read(0x1010, 8) // back to page 1, a chunk already recorded

	if got, want := readSet(o), []uint64{0x1000, 0x1040, 0x4fc0, 0x5000, 0x9000}; !slices.Equal(got, want) {
		t.Errorf("read chunks = %#x, want %#x", got, want)
	}
	want := slices.Concat(span(0x2ffd, 4), span(0x3010, 3), span(0x9000, 8))
	if got := writtenSet(o); !slices.Equal(got, want) {
		t.Errorf("written bytes = %#x, want %#x", got, want)
	}
	if got := o.Read(0x3004, 4); got != 0xffffffff {
		t.Errorf("copied page lost the base's bytes: %#x", got)
	}

	quiet := NewOverlay(base, false)
	quiet.Read(0x1000, 4)
	if quiet.reads != nil {
		t.Errorf("untracked overlay recorded reads %v", readSet(quiet))
	}
}

func TestOverlayReadsFrom(t *testing.T) {
	base := New()
	a := NewOverlay(base, false)
	b, c, d := NewOverlay(base, true), NewOverlay(base, true), NewOverlay(base, true)
	a.Write(0x1000, 4, 1)
	b.Read(0x1038, 8) // a's chunk, bytes a left alone
	c.Read(0x1040, 4) // a's page, the next chunk
	c.Read(0x2000, 4)
	c.Write(0x1000, 4, 3) // writing a's chunk is no dependency
	d.Read(0x1000, 1)
	d.Read(0x3000, 1) // moves the page cache off the read that counts
	if !b.ReadsFrom(a) {
		t.Error("b read a chunk a wrote, ReadsFrom = false")
	}
	if !d.ReadsFrom(a) {
		t.Error("d read a byte a wrote, ReadsFrom = false")
	}
	if c.ReadsFrom(a) {
		t.Error("c read only chunks a left alone, ReadsFrom = true")
	}
	if a.ReadsFrom(b) {
		t.Error("a read nothing, ReadsFrom = true")
	}
}

// TestOverlayCommitAppliesOnlyWrittenBytes commits two overlays that
// share a page in launch order: each replays only its own bytes, so
// neither's stale copy of the page undoes the other's writes, and where
// both wrote one byte the later overlay wins, as in a sequential run.
func TestOverlayCommitAppliesOnlyWrittenBytes(t *testing.T) {
	base := New()
	for i := uint64(0); i < 16; i++ {
		base.SetU8(0x1000+i, 0xee)
	}
	seq := base.Clone()

	first, second := NewOverlay(base, false), NewOverlay(base, true)
	first.Write(0x1000, 4, 0x11111111)
	first.Write(0x1008, 1, 0xaa)
	second.Write(0x1004, 4, 0x22222222)
	second.Write(0x1008, 1, 0xbb)
	second.Write(0x7000, 1, 0) // a zero byte on a page the base lacks

	seq.Write(0x1000, 4, 0x11111111)
	seq.Write(0x1008, 1, 0xaa)
	seq.Write(0x1004, 4, 0x22222222)
	seq.Write(0x1008, 1, 0xbb)
	seq.Write(0x7000, 1, 0)

	first.Commit()
	second.Commit()
	if !base.Equal(seq) {
		t.Fatalf("merged memory differs from the sequential writes: %x vs %x",
			base.F32Slice(0x1000, 4), seq.F32Slice(0x1000, 4))
	}
	if got := base.U8(0x100c); got != 0xee {
		t.Errorf("byte neither overlay wrote = %#x, want 0xee", got)
	}
}

func TestMemoryEqual(t *testing.T) {
	a, b := New(), New()
	a.SetI32(0x10, 5)
	b.SetI32(0x10, 5)
	if !a.Equal(b) {
		t.Fatal("equal memories compare unequal")
	}
	b.SetI32(0x8010, 0)
	if a.Equal(b) || b.Equal(a) {
		t.Error("an extra zero page compares equal")
	}
	a.SetI32(0x8010, 1)
	if a.Equal(b) {
		t.Error("different bytes compare equal")
	}
}

// TestWriteToFollowsEqual: memories write the same stream exactly when
// they are Equal, whatever order their pages were written in, and the
// stream is each page's base address and bytes in address order.
func TestWriteToFollowsEqual(t *testing.T) {
	stream := func(m *Memory) []byte {
		var b bytes.Buffer
		n, err := m.WriteTo(&b)
		if err != nil || n != int64(b.Len()) {
			t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, b.Len())
		}
		return b.Bytes()
	}
	a, b := New(), New()
	a.SetI32(0x8010, 7)
	a.SetI32(0x10, 5)
	b.SetI32(0x10, 5)
	b.SetI32(0x8010, 7)
	sa := stream(a)
	if !bytes.Equal(sa, stream(b)) {
		t.Fatal("equal memories write different streams")
	}
	if len(sa) != 2*(8+pageSize) || binary.LittleEndian.Uint64(sa) != 0 ||
		binary.LittleEndian.Uint64(sa[8+pageSize:]) != 0x8000 || sa[8+0x10] != 5 {
		t.Fatalf("stream is not the pages in address order: %d bytes", len(sa))
	}
	b.SetI32(0x20000, 0)
	if bytes.Equal(sa, stream(b)) {
		t.Error("an extra zero page writes the same stream")
	}
	if len(stream(New())) != 0 || len(stream(&Memory{})) != 0 {
		t.Error("an empty memory writes bytes")
	}
}

// TestOverlayReadWriteMatchByteAccess: an Overlay's Read and Write take
// a shortcut for an access inside one page. They must return and store
// exactly what the byte-slice accessors do, for every access size and
// for accesses that straddle a page, and record exactly the chunks read
// and the bytes written.
func TestOverlayReadWriteMatchByteAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := New()
	for i := 0; i < 64; i++ {
		base.SetI64(uint64(rng.Intn(4*pageSize)), rng.Int63())
	}
	oFast, oRef := NewOverlay(base, true), NewOverlay(base, true)
	written := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		addr := uint64(rng.Intn(4 * pageSize))
		if rng.Intn(4) == 0 {
			addr = uint64(1+rng.Intn(3))*pageSize - uint64(rng.Intn(9)) // near a page boundary
		}
		size := []int{1, 2, 4, 8}[rng.Intn(4)]
		var buf [8]byte
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			oFast.Write(addr, size, v)
			binary.LittleEndian.PutUint64(buf[:], v)
			oRef.writeBytes(addr, buf[:size])
			for b := addr; b < addr+uint64(size); b++ {
				written[b] = true
			}
		} else {
			oRef.readBytes(addr, buf[:size])
			want := binary.LittleEndian.Uint64(buf[:])
			if got := oFast.Read(addr, size); got != want {
				t.Fatalf("Overlay.Read(%#x, %d) = %#x, want %#x", addr, size, got, want)
			}
		}
		if !slices.Equal(readSet(oFast), readSet(oRef)) {
			t.Fatalf("after %d accesses: Read recorded other chunks than readBytes", i+1)
		}
	}
	var want []uint64
	for b := range written {
		want = append(want, b)
	}
	slices.Sort(want)
	for _, o := range []*Overlay{oFast, oRef} {
		if !slices.Equal(writtenSet(o), want) {
			t.Fatal("overlay recorded other bytes written than were")
		}
		for k, p := range o.own {
			var chunks uint64
			for i := 0; i < pageSize; i++ {
				if written[k<<pageBits+uint64(i)] {
					chunks |= 1 << (i >> chunkBits)
				}
			}
			if p.chunks != chunks {
				t.Fatalf("page %#x: written chunks %#x, want %#x", k, p.chunks, chunks)
			}
		}
	}
	for k, p := range oRef.own {
		if q := oFast.own[k]; q == nil || *q.data != *p.data {
			t.Fatalf("page %#x: overlay copies differ", k)
		}
	}
}
