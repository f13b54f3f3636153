package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"gpumech/internal/isa"
)

// fuzzKernel builds a small but fully valid kernel trace for seeding.
func fuzzKernel() *Kernel {
	b := isa.NewBuilder("fuzz-seed")
	r0, r1 := b.Reg(), b.Reg()
	b.IAdd(r0, r0, r1)
	b.LdG(r1, r0, 0, isa.MemF32)
	prog := b.MustBuild()

	k := &Kernel{
		Name:          "fuzz-seed",
		Prog:          prog,
		Blocks:        1,
		WarpsPerBlock: 2,
		LineBytes:     128,
	}
	for w := 0; w < 2; w++ {
		var b ColBuilder
		for _, r := range []Rec{
			{PC: 0, Op: isa.OpIAdd, Dst: r0, Srcs: [4]isa.Reg{r0, r1, isa.RegNone, isa.RegNone}, NumSrcs: 2, Mask: 0xFFFFFFFF},
			{PC: 1, Op: isa.OpLdG, Dst: r1, Srcs: [4]isa.Reg{r0, isa.RegNone, isa.RegNone, isa.RegNone}, NumSrcs: 1,
				Mask: 0xFFFFFFFF, Lines: []uint64{0, 128}},
		} {
			if err := b.Append(&r); err != nil {
				panic(err)
			}
		}
		k.Warps = append(k.Warps, &WarpTrace{BlockID: 0, WarpID: w, ColWarp: b.Finish()})
	}
	return k
}

// FuzzReadKernel feeds arbitrary bytes to the trace deserializer. The
// contract: ReadKernel either returns an error or a kernel that passes
// Validate and round-trips through Encode byte-faithfully — it must never
// panic, whatever the input stream contains.
func FuzzReadKernel(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := ReadKernel(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable
		}
		// Anything accepted must satisfy the trace invariants...
		if verr := k.Validate(); verr != nil {
			t.Fatalf("ReadKernel returned an invalid kernel: %v", verr)
		}
		if k.TotalInsts() < 0 {
			t.Fatalf("negative instruction count %d", k.TotalInsts())
		}
		// ...and survive a round trip unchanged.
		var out bytes.Buffer
		if err := k.Encode(&out); err != nil {
			t.Fatalf("re-encoding an accepted kernel failed: %v", err)
		}
		k2, err := ReadKernel(&out)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded kernel failed: %v", err)
		}
		if !reflect.DeepEqual(k, k2) {
			t.Fatal("kernel changed across an encode/decode round trip")
		}
	})
}

// fuzzSeeds builds the named seed inputs for FuzzReadKernel: a well-formed
// v2 stream, the v1 fixture (which must be rejected), truncations,
// container garbage, corrupted columnar payloads, and trailing data after
// a valid stream. The same set backs the checked-in corpus under
// testdata/fuzz/FuzzReadKernel.
type fuzzSeed struct {
	name string
	data []byte
}

func fuzzSeeds(t testing.TB) []fuzzSeed {
	encode := func(enc func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	k := fuzzKernel()
	col := encode(k.Encode)
	legacy := legacyTrace(t)

	// regzip re-compresses a mutated payload so the corruption survives the
	// gzip container and reaches the columnar decoder.
	regzip := func(payload []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	zr, err := gzip.NewReader(bytes.NewReader(col))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int, b byte) []byte {
		p := append([]byte{}, payload...)
		p[off] ^= b
		return regzip(p)
	}

	// Edge-case kernels: a header that promises warps but carries none,
	// and a warp whose record columns are all empty. The first must be
	// rejected (Validate requires blocks x warpsPerBlock warp streams);
	// the second is valid and must round-trip.
	zeroWarp := func() []byte {
		zk := fuzzKernel()
		zk.Warps = nil
		return encode(zk.Encode)
	}()
	emptyColumn := func() []byte {
		ek := fuzzKernel()
		ek.Warps[0].ColWarp = ColWarp{}
		return encode(ek.Encode)
	}()

	return []fuzzSeed{
		{"valid-columnar", col},
		{"valid-legacy-gob", legacy},
		{"zero-warp-columnar", zeroWarp},
		{"empty-column-warp", emptyColumn},
		{"truncated-columnar", col[:len(col)/2]},
		{"truncated-legacy", legacy[:len(legacy)/2]},
		{"gzip-magic-bare", []byte{0x1f, 0x8b}},
		{"not-gzip-container", []byte("not gzip data")},
		{"trailing-columnar", bytes.Repeat(col, 2)},
		{"trailing-legacy-then-columnar", append(append([]byte{}, legacy...), col...)},
		{"columnar-payload-truncated", regzip(payload[:len(payload)-3])},
		{"columnar-bad-magic", flip(0, 0xFF)},
		{"columnar-corrupt-header-len", flip(len(colMagic), 0x7F)},
		{"columnar-corrupt-column-byte", flip(len(payload)-5, 0xA5)},
		{"columnar-payload-trailing", regzip(append(append([]byte{}, payload...), 1, 2, 3))},
	}
}

// TestFuzzSeedsNeverPanic runs every seed through the fuzz body on plain
// `go test` runs, so the corpus properties hold without -fuzz.
func TestFuzzSeedsNeverPanic(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		t.Run(seed.name, func(t *testing.T) {
			k, err := ReadKernel(bytes.NewReader(seed.data))
			if err != nil {
				return
			}
			if verr := k.Validate(); verr != nil {
				t.Fatalf("accepted kernel fails Validate: %v", verr)
			}
		})
	}
}

// TestFuzzSeedRoundTrip pins the seed kernel's round trip outside the
// fuzzer so the property is exercised on every plain `go test` run.
func TestFuzzSeedRoundTrip(t *testing.T) {
	k := fuzzKernel()
	var buf bytes.Buffer
	if err := k.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKernel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k, got) {
		t.Fatal("round trip changed the kernel")
	}
}

// TestEmptyWarpEdgeCases pins the two degenerate kernel shapes the fuzz
// corpus seeds: a kernel whose header promises warps it does not carry,
// and a kernel with a warp whose columns are all empty. The first fails
// Validate and must be rejected on decode; the second is legal — an
// early-exit warp records nothing — and must survive
// encode -> decode -> Validate unchanged.
func TestEmptyWarpEdgeCases(t *testing.T) {
	t.Run("zero-warp", func(t *testing.T) {
		zk := fuzzKernel()
		zk.Warps = nil
		if zk.Validate() == nil {
			t.Fatal("kernel with 0 warps but a 1x2 launch passed Validate")
		}
		var buf bytes.Buffer
		if err := zk.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := ReadKernel(&buf); err == nil {
			t.Fatal("decoder accepted a kernel whose header promises warps it does not carry")
		}
	})
	t.Run("empty-column-columnar", func(t *testing.T) {
		ek := fuzzKernel()
		ek.Warps[0].ColWarp = ColWarp{}
		if err := ek.Validate(); err != nil {
			t.Fatalf("empty warp should be legal: %v", err)
		}
		var buf bytes.Buffer
		if err := ek.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := ReadKernel(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded kernel fails Validate: %v", err)
		}
		if n := got.Warps[0].Insts(); n != 0 {
			t.Fatalf("empty warp decoded with %d records", n)
		}
		if !reflect.DeepEqual(ek, got) {
			t.Fatal("empty-column kernel changed across the round trip")
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus and the
// testdata trace files when GPUMECH_WRITE_CORPUS=1. It is a no-op (and a
// staleness check) otherwise: every corpus seed written by a previous run
// must still be present.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadKernel")
	seeds := fuzzSeeds(t)
	if os.Getenv("GPUMECH_WRITE_CORPUS") != "1" {
		for _, seed := range seeds {
			if _, err := os.Stat(filepath.Join(dir, seed.name)); err != nil {
				t.Errorf("corpus seed %q missing; regenerate with GPUMECH_WRITE_CORPUS=1 go test ./internal/trace/", seed.name)
			}
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed.data)))
		if err := os.WriteFile(filepath.Join(dir, seed.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The v1 fixture is checked in as it is: nothing writes that format.
	k := fuzzKernel()
	if err := k.Save(filepath.Join("testdata", "fuzz-seed.columnar.trace")); err != nil {
		t.Fatal(err)
	}
}
