// Package memory provides the sparse, byte-addressable global memory used
// by the functional emulator. Addresses are 64-bit; storage is allocated
// lazily in fixed-size pages so kernels can scatter data across a large
// address space without cost.
package memory

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

const pageBits = 12 // 4 KiB pages
const pageSize = 1 << pageBits

// Memory is a sparse byte-addressable memory. The zero value is empty and
// ready to use. Reads of unwritten addresses return zero bytes, like
// freshly allocated device memory. Memory is not safe for concurrent use,
// with one exception: any number of goroutines may read it at once while
// none writes it. Overlays rely on that to run the blocks of one launch
// concurrently over a shared launch memory.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[uint64]*[pageSize]byte)} }

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	return p
}

// ReadBytes fills dst with the bytes at addr.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := int(addr & (pageSize - 1))
		n := min(pageSize-off, len(dst))
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// WriteBytes stores src at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := int(addr & (pageSize - 1))
		n := min(pageSize-off, len(src))
		p := m.page(addr, true)
		copy(p[off:off+n], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// Read returns size (1, 4, or 8) bytes at addr as a little-endian uint64.
func (m *Memory) Read(addr uint64, size int) uint64 {
	var buf [8]byte
	m.ReadBytes(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size (1, 4, or 8) bytes of v at addr.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.WriteBytes(addr, buf[:size])
}

// U8 returns the byte at addr.
func (m *Memory) U8(addr uint64) uint8 { return uint8(m.Read(addr, 1)) }

// SetU8 stores a byte at addr.
func (m *Memory) SetU8(addr uint64, v uint8) { m.Write(addr, 1, uint64(v)) }

// I32 returns the int32 at addr.
func (m *Memory) I32(addr uint64) int32 { return int32(m.Read(addr, 4)) }

// SetI32 stores an int32 at addr.
func (m *Memory) SetI32(addr uint64, v int32) { m.Write(addr, 4, uint64(uint32(v))) }

// I64 returns the int64 at addr.
func (m *Memory) I64(addr uint64) int64 { return int64(m.Read(addr, 8)) }

// SetI64 stores an int64 at addr.
func (m *Memory) SetI64(addr uint64, v int64) { m.Write(addr, 8, uint64(v)) }

// F32 returns the float32 at addr.
func (m *Memory) F32(addr uint64) float32 { return math.Float32frombits(uint32(m.Read(addr, 4))) }

// SetF32 stores a float32 at addr.
func (m *Memory) SetF32(addr uint64, v float32) { m.Write(addr, 4, uint64(math.Float32bits(v))) }

// F64 returns the float64 at addr.
func (m *Memory) F64(addr uint64) float64 { return math.Float64frombits(m.Read(addr, 8)) }

// SetF64 stores a float64 at addr.
func (m *Memory) SetF64(addr uint64, v float64) { m.Write(addr, 8, math.Float64bits(v)) }

// SetF32Slice stores vals contiguously starting at base (4 bytes each),
// each page's run of whole values in one piece.
func (m *Memory) SetF32Slice(base uint64, vals []float32) {
	for len(vals) > 0 {
		p, n := m.wordRun(base, len(vals))
		if p == nil { // the value straddles a page boundary
			m.SetF32(base, vals[0])
		}
		for i, v := range vals[:len(p)/4] {
			binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(v))
		}
		vals = vals[n:]
		base += uint64(4 * n)
	}
}

// wordRun returns where the first of n 4-byte values at base go: the
// bytes of the longest run of them inside base's page, created if need
// be, and how many values that is. When the first value straddles a
// page boundary it returns nil and 1, and the caller writes that value
// alone.
func (m *Memory) wordRun(base uint64, n int) ([]byte, int) {
	off := int(base & (pageSize - 1))
	k := min((pageSize-off)/4, n)
	if k == 0 {
		return nil, 1
	}
	return m.page(base, true)[off : off+4*k], k
}

// F32Slice reads n contiguous float32 values starting at base.
func (m *Memory) F32Slice(base uint64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.F32(base + uint64(4*i))
	}
	return out
}

// SetI32Slice stores vals contiguously starting at base (4 bytes each),
// each page's run of whole values in one piece.
func (m *Memory) SetI32Slice(base uint64, vals []int32) {
	for len(vals) > 0 {
		p, n := m.wordRun(base, len(vals))
		if p == nil { // the value straddles a page boundary
			m.SetI32(base, vals[0])
		}
		for i, v := range vals[:len(p)/4] {
			binary.LittleEndian.PutUint32(p[4*i:], uint32(v))
		}
		vals = vals[n:]
		base += uint64(4 * n)
	}
}

// I32Slice reads n contiguous int32 values starting at base.
func (m *Memory) I32Slice(base uint64, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = m.I32(base + uint64(4*i))
	}
	return out
}

// Footprint returns the number of bytes of storage currently allocated.
func (m *Memory) Footprint() int { return len(m.pages) * pageSize }

// Equal reports whether m and o hold the same pages with the same bytes.
// A page allocated on one side only counts as a difference even when it
// is all zeros, since it shows the two were written differently.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.pages) != len(o.pages) {
		return false
	}
	for k, p := range m.pages {
		if q := o.pages[k]; q == nil || *p != *q {
			return false
		}
	}
	return true
}

// WriteTo writes every allocated page to w in address order, each as its
// base address (8 bytes, little-endian) followed by its bytes, so two
// memories write the same stream exactly when they are Equal.
func (m *Memory) WriteTo(w io.Writer) (int64, error) {
	keys := make([]uint64, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var n int64
	var hdr [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(hdr[:], k<<pageBits)
		for _, b := range [][]byte{hdr[:], m.pages[k][:]} {
			c, err := w.Write(b)
			n += int64(c)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Clone returns an independent deep copy of the memory. The emulator uses
// it to rerun a kernel on identical initial state (e.g. once for tracing
// and once for the timing oracle).
func (m *Memory) Clone() *Memory {
	c := New()
	for k, p := range m.pages {
		cp := *p
		c.pages[k] = &cp
	}
	return c
}
