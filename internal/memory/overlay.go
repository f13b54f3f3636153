package memory

import (
	"encoding/binary"
	"math/bits"
)

// Overlay is a private, copy-on-write view of a base Memory. It lets one
// part of a kernel launch run concurrently with others over the same
// launch memory: reads fall through to the base, and the first write to
// a page copies that page into the overlay (when the base has it), so
// the overlay's own writes stay private and the base is never written.
//
// The overlay records exactly which 64-byte chunks it read and which
// bytes it wrote. A caller running several overlays over one base uses
// the first to find dependencies between them (ReadsFrom) and the second
// to replay each overlay's writes into the base (Commit).
//
// An Overlay belongs to one goroutine. Any number of overlays may read
// one base concurrently, as long as nothing writes the base meanwhile.
type Overlay struct {
	base  *Memory
	own   map[uint64]*ownPage // private copies of the pages written, by page number
	reads map[uint64]uint64   // chunks read, a bit per chunk, by page number; nil when reads are not tracked

	// A one-entry cache of the last page touched. data is what reads of
	// it see: the private copy, the base page, or nil (a page nobody has
	// written reads as zeros). ownp is the private copy, if there is one.
	// rbits collects the chunks of the cached page read since it was
	// cached; it moves into reads when the cache moves on.
	key   uint64
	valid bool
	data  *[pageSize]byte
	ownp  *ownPage
	rbits uint64
}

// chunkBits sets the granularity of read tracking: 64-byte chunks, one
// bit per chunk of a page, one chunk per word of ownPage.written.
const chunkBits = 6

// chunkMask returns the chunk bits of the n > 0 bytes at page offset off.
func chunkMask(off, n int) uint64 {
	lo, hi := off>>chunkBits, (off+n-1)>>chunkBits
	return ^uint64(0) >> (63 - hi) &^ (1<<lo - 1)
}

// ownPage is an overlay's private copy of one page plus a mask of the
// bytes the overlay wrote into it. The data is a page of its own, so
// Commit can hand it to a base that has no such page instead of copying.
type ownPage struct {
	data    *[pageSize]byte
	written [pageSize / 64]uint64 // bit i set: byte i was written
	chunks  uint64                // bit c set: a byte of chunk c was written
}

// NewOverlay returns an empty overlay over base. trackReads makes the
// overlay record the chunks it reads, for ReadsFrom; the first of a
// sequence of overlays, which follows no other, can skip that
// bookkeeping.
func NewOverlay(base *Memory, trackReads bool) *Overlay {
	o := &Overlay{base: base, own: make(map[uint64]*ownPage)}
	if trackReads {
		o.reads = make(map[uint64]uint64)
	}
	return o
}

// cache points the one-entry cache at page key.
func (o *Overlay) cache(key uint64) {
	o.flushReads()
	o.key, o.valid = key, true
	o.ownp = o.own[key]
	if o.ownp != nil {
		o.data = o.ownp.data
	} else {
		o.data = o.base.page(key<<pageBits, false)
	}
}

// flushReads moves the chunks read on the cached page into reads.
func (o *Overlay) flushReads() {
	if o.rbits != 0 {
		o.reads[o.key] |= o.rbits
		o.rbits = 0
	}
}

// private returns the overlay's copy of page key, making it on the first
// write: a copy of the base page when the base has one, zeros otherwise.
func (o *Overlay) private(key uint64) *ownPage {
	if o.valid && key == o.key && o.ownp != nil {
		return o.ownp
	}
	if !o.valid || key != o.key {
		o.cache(key)
	}
	if o.ownp == nil {
		p := &ownPage{data: new([pageSize]byte)}
		if o.data != nil {
			*p.data = *o.data
		}
		o.own[key] = p
		o.ownp, o.data = p, p.data
	}
	return o.ownp
}

// readBytes fills dst with the bytes at addr as the overlay sees them.
func (o *Overlay) readBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := int(addr & (pageSize - 1))
		n := min(pageSize-off, len(dst))
		if key := addr >> pageBits; !o.valid || key != o.key {
			o.cache(key)
		}
		if o.reads != nil {
			o.rbits |= chunkMask(off, n)
		}
		if p := o.data; p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// writeBytes stores src at addr in the overlay.
func (o *Overlay) writeBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := int(addr & (pageSize - 1))
		n := min(pageSize-off, len(src))
		p := o.private(addr >> pageBits)
		copy(p.data[off:off+n], src[:n])
		p.markWritten(off, n)
		src = src[n:]
		addr += uint64(n)
	}
}

// markWritten records bytes [off, off+n) of the page as written.
func (p *ownPage) markWritten(off, n int) {
	p.chunks |= chunkMask(off, n)
	for n > 0 {
		bit := off & 63
		k := min(n, 64-bit)
		p.written[off>>6] |= ^uint64(0) >> (64 - k) << bit
		off, n = off+k, n-k
	}
}

// Read returns size (1, 4, or 8) bytes at addr as a little-endian uint64.
func (o *Overlay) Read(addr uint64, size int) uint64 {
	off, ok := inPage(addr, size)
	if !ok {
		var buf [8]byte
		o.readBytes(addr, buf[:size])
		return binary.LittleEndian.Uint64(buf[:])
	}
	if key := addr >> pageBits; !o.valid || key != o.key {
		o.cache(key)
	}
	if o.reads != nil {
		o.rbits |= chunkMask(off, size)
	}
	if p := o.data; p != nil {
		return loadLE(p[off : off+size])
	}
	return 0
}

// Write stores the low size (1, 4, or 8) bytes of v at addr.
func (o *Overlay) Write(addr uint64, size int, v uint64) {
	off, ok := inPage(addr, size)
	if !ok {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		o.writeBytes(addr, buf[:size])
		return
	}
	p := o.private(addr >> pageBits)
	storeLE(p.data[off:off+size], v)
	p.markWritten(off, size)
}

// ReadsFrom reports whether o read any 64-byte chunk that earlier wrote
// a byte of. Chunk granularity is conservative: o may have read only
// bytes earlier left alone. It is fine enough that blocks updating their
// own elements in place never conflict when each block's elements fill
// whole chunks, as a block of 32 threads on 4-byte elements does,
// wherever the block ranges split the grid.
func (o *Overlay) ReadsFrom(earlier *Overlay) bool {
	o.flushReads()
	if len(o.reads) <= len(earlier.own) {
		for key, chunks := range o.reads {
			if p := earlier.own[key]; p != nil && p.chunks&chunks != 0 {
				return true
			}
		}
		return false
	}
	for key, p := range earlier.own {
		if o.reads[key]&p.chunks != 0 {
			return true
		}
	}
	return false
}

// Commit replays the bytes o wrote, and only those, into the base
// memory. Committing overlays in launch order gives the base the
// contents a sequential run would leave. A page the base lacks takes o's
// copy whole: o made it from zeros, which is what the base would read
// for every byte o left alone. o must not be used afterwards.
func (o *Overlay) Commit() {
	if o.base.pages == nil {
		o.base.pages = make(map[uint64]*[pageSize]byte)
	}
	for key, p := range o.own {
		dst := o.base.pages[key]
		if dst == nil {
			o.base.pages[key] = p.data
			continue
		}
		for w, mask := range p.written {
			lo := w * 64
			if mask == ^uint64(0) {
				copy(dst[lo:lo+64], p.data[lo:lo+64])
				continue
			}
			for ; mask != 0; mask &= mask - 1 {
				i := lo + bits.TrailingZeros64(mask)
				dst[i] = p.data[i]
			}
		}
	}
	o.own, o.reads, o.data, o.ownp, o.valid, o.rbits = nil, nil, nil, nil, false, 0
}

// inPage returns addr's page offset and whether the size-byte access
// there is one Overlay.Read or Write can make in place: 1 to 8 bytes, all in
// one page.
func inPage(addr uint64, size int) (int, bool) {
	off := int(addr & (pageSize - 1))
	return off, size > 0 && size <= 8 && off+size <= pageSize
}

// loadLE returns the 1 to 8 bytes of b as a little-endian uint64.
func loadLE(b []byte) uint64 {
	switch len(b) {
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 1:
		return uint64(b[0])
	}
	var buf [8]byte
	copy(buf[:], b)
	return binary.LittleEndian.Uint64(buf[:])
}

// storeLE stores the low len(b) (1 to 8) bytes of v in b, little-endian.
func storeLE(b []byte, v uint64) {
	switch len(b) {
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 1:
		b[0] = byte(v)
	default:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		copy(b, buf[:])
	}
}
