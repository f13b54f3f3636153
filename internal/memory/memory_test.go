package memory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if got := m.I32(0x123456); got != 0 {
		t.Errorf("unwritten I32 = %d, want 0", got)
	}
	if got := m.F64(1 << 40); got != 0 {
		t.Errorf("unwritten F64 = %g, want 0", got)
	}
}

func TestTypedRoundTrips(t *testing.T) {
	m := New()
	m.SetU8(10, 0xAB)
	if got := m.U8(10); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	m.SetI32(100, -123456)
	if got := m.I32(100); got != -123456 {
		t.Errorf("I32 = %d", got)
	}
	m.SetI64(200, -1<<40)
	if got := m.I64(200); got != -1<<40 {
		t.Errorf("I64 = %d", got)
	}
	m.SetF32(300, 3.25)
	if got := m.F32(300); got != 3.25 {
		t.Errorf("F32 = %g", got)
	}
	m.SetF64(400, math.Pi)
	if got := m.F64(400); got != math.Pi {
		t.Errorf("F64 = %g", got)
	}
}

func TestPageBoundarySpanning(t *testing.T) {
	m := New()
	// Write an 8-byte value straddling the 4 KiB page boundary.
	addr := uint64(4096 - 3)
	m.SetI64(addr, 0x1122334455667788)
	if got := m.I64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page I64 = %#x", got)
	}
	// Bytes land on both pages.
	if m.U8(4095) == 0 && m.U8(4096) == 0 {
		t.Error("cross-page write did not touch both pages")
	}
}

func TestSliceHelpers(t *testing.T) {
	m := New()
	f := []float32{1, 2, 3, -4.5}
	m.SetF32Slice(1000, f)
	got := m.F32Slice(1000, len(f))
	for i := range f {
		if got[i] != f[i] {
			t.Errorf("F32Slice[%d] = %g, want %g", i, got[i], f[i])
		}
	}
	iv := []int32{5, -6, 7}
	m.SetI32Slice(2000, iv)
	gotI := m.I32Slice(2000, len(iv))
	for i := range iv {
		if gotI[i] != iv[i] {
			t.Errorf("I32Slice[%d] = %d, want %d", i, gotI[i], iv[i])
		}
	}
}

func TestOverlappingWrites(t *testing.T) {
	m := New()
	m.SetI32(0, -1) // 0xFFFFFFFF
	m.SetU8(1, 0)
	if got := uint32(m.I32(0)); got != 0xFFFF00FF {
		t.Errorf("after byte overwrite I32 = %#x, want 0xFFFF00FF", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := New()
	m.SetI32(64, 42)
	c := m.Clone()
	if got := c.I32(64); got != 42 {
		t.Fatalf("clone lost data: %d", got)
	}
	c.SetI32(64, 7)
	if got := m.I32(64); got != 42 {
		t.Errorf("mutating clone changed original: %d", got)
	}
	m.SetI32(128, 9)
	if got := c.I32(128); got != 0 {
		t.Errorf("mutating original changed clone: %d", got)
	}
}

func TestFootprintGrowsLazily(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Fatalf("fresh memory footprint %d", m.Footprint())
	}
	m.SetU8(0, 1)
	m.SetU8(1<<30, 1) // far away: one more page, not gigabytes
	if got := m.Footprint(); got != 2*4096 {
		t.Errorf("footprint = %d, want 2 pages", got)
	}
}

func TestReadsDoNotAllocate(t *testing.T) {
	m := New()
	_ = m.I64(123456789)
	if m.Footprint() != 0 {
		t.Errorf("read allocated %d bytes", m.Footprint())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	m.SetI32(8, 5)
	if got := m.I32(8); got != 5 {
		t.Errorf("zero-value Memory write/read = %d", got)
	}
}

// TestQuickRandomRoundTrip writes random values at random (possibly
// unaligned, page-crossing) addresses and verifies a shadow map agrees
// byte for byte.
func TestQuickRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New()
	shadow := map[uint64]byte{}
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(3 * 4096))
		size := []int{1, 4, 8}[rng.Intn(3)]
		v := rng.Uint64()
		m.Write(addr, size, v)
		for b := 0; b < size; b++ {
			shadow[addr+uint64(b)] = byte(v >> (8 * b))
		}
	}
	for addr, want := range shadow {
		if got := m.U8(addr); got != want {
			t.Fatalf("byte at %d = %#x, want %#x", addr, got, want)
		}
	}
}

// TestQuickWriteReadProperty checks Write/Read identity for arbitrary
// addresses and values.
func TestQuickWriteReadProperty(t *testing.T) {
	f := func(addr uint64, v uint64, pick uint8) bool {
		size := []int{1, 4, 8}[int(pick)%3]
		m := New()
		m.Write(addr, size, v)
		got := m.Read(addr, size)
		mask := uint64(1)<<(8*size) - 1
		if size == 8 {
			mask = ^uint64(0)
		}
		return got == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSliceSettersMatchElementWrites: the slice setters write each
// page's run in one piece, so they must leave exactly the bytes and
// pages that storing the values one at a time does, at any alignment,
// across page boundaries and with a value straddling one.
func TestSliceSettersMatchElementWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, base := range []uint64{0, 1, 4094, 4095, 4096, 8190, 3 << 20, 3<<20 + 2} {
		for _, n := range []int{0, 1, 3, 1023, 1024, 1025, 3000} {
			fs, is := make([]float32, n), make([]int32, n)
			for i := range fs {
				fs[i], is[i] = rng.Float32()*8-4, rng.Int31()-1<<30
			}
			got, want := New(), New()
			got.SetF32Slice(base, fs)
			got.SetI32Slice(base+1<<16, is)
			for i := range fs {
				want.SetF32(base+uint64(4*i), fs[i])
				want.SetI32(base+1<<16+uint64(4*i), is[i])
			}
			if !got.Equal(want) {
				t.Fatalf("base %d, %d values: memory differs from element-wise stores", base, n)
			}
		}
	}
}
