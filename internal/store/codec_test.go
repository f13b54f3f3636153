package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gpumech/internal/config"
)

// TestStoreCodecCoversEveryField sets every field of Key (its
// config.ProfileKey included) and of config.Config to a distinct
// non-zero value and requires Put then Get to return each one. The codec
// lists fields by hand, so a field added to either struct later fails
// here until the codec writes it.
func TestStoreCodecCoversEveryField(t *testing.T) {
	next := int64(0)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Int, reflect.Int64:
			// Multi-byte varints, alternating in sign.
			n := next * 1_000_003
			if next%2 == 0 {
				n = -n
			}
			v.SetInt(n)
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.375)
		case reflect.String:
			v.SetString(fmt.Sprintf("kernel_%d", next))
		default:
			t.Fatalf("%s: no value for kind %s; the codec and this test need a case for it", path, v.Kind())
		}
	}
	var k Key
	fill(reflect.ValueOf(&k).Elem(), "Key")
	var cfg config.Config
	fill(reflect.ValueOf(&cfg).Elem(), "Config")

	s, _ := openTestStore(t)
	e := testEntry(k)
	e.Profile.Cfg = cfg
	raw := mustPut(t, s, k, e)
	got, err := decodeEntry(raw)
	if err != nil {
		t.Fatal(err)
	}
	diffFields(t, "Key", reflect.ValueOf(got.Key), reflect.ValueOf(k))
	diffFields(t, "Config", reflect.ValueOf(got.Profile.Cfg), reflect.ValueOf(cfg))
	if _, ok := s.Get(k); !ok {
		t.Error("Get missed the entry")
	}
}

// diffFields reports every leaf field where got and want differ.
func diffFields(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	if want.Kind() == reflect.Struct {
		for i := 0; i < want.NumField(); i++ {
			diffFields(t, path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
		return
	}
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		t.Errorf("%s = %v after the round trip, want %v", path, got, want)
	}
}

// maxGetAllocs pins the allocations of one Get of the fixed testEntry,
// one above the 21 it makes (with or without -race): the content
// address, the file handle, the read buffer and the decoded entry.
// Format version 2 made 518, most of them compiling its gob header's
// types.
const maxGetAllocs = 22

// TestStoreGetAllocs gates the read path's allocation count.
func TestStoreGetAllocs(t *testing.T) {
	s, _ := openTestStore(t)
	k := testKey()
	mustPut(t, s, k, testEntry(k))
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get(k); !ok {
			t.Fatal("Get missed")
		}
	})
	if allocs > maxGetAllocs {
		t.Errorf("Get made %.0f allocations, want at most %d", allocs, maxGetAllocs)
	}
}

// TestKeyCanonicalMatchesFmt pins the strconv rendering of the content
// address against the fmt.Sprintf rendering it replaced, byte for byte,
// so no stored entry changes its file name.
func TestKeyCanonicalMatchesFmt(t *testing.T) {
	fmtProfile := func(k config.ProfileKey) string {
		return fmt.Sprintf("c%d-L1:%d/%d/%d@%d-L2:%d/%d/%d@%d-dram@%d",
			k.Cores,
			k.L1SizeBytes, k.L1LineBytes, k.L1Assoc, k.L1Latency,
			k.L2SizeBytes, k.L2LineBytes, k.L2Assoc, k.L2Latency,
			k.DRAMLatency)
	}
	fmtKey := func(k Key) string {
		return fmt.Sprintf("v%d|kernel=%s|blocks=%d|seed=%d|line=%d|profile=%s|alu=%d|fp=%d|sfu=%d|smem=%d|issue=%d",
			formatVersion, k.Kernel, k.Blocks, k.Seed, k.Line, fmtProfile(k.Profile),
			k.ALULatency, k.FPLatency, k.SFULatency, k.SMemLatency, k.IssueWidth)
	}
	base := testKey()
	every := Key{Kernel: "k", Blocks: 1, Seed: 2, Line: 3,
		Profile: config.ProfileKey{Cores: 4, L1SizeBytes: 5, L1LineBytes: 6, L1Assoc: 7, L1Latency: 8,
			L2SizeBytes: 9, L2LineBytes: 10, L2Assoc: 11, L2Latency: 12, DRAMLatency: 13},
		ALULatency: 14, FPLatency: 15, SFULatency: 16, SMemLatency: 17, IssueWidth: 18}
	extreme := Key{Kernel: "x", Blocks: math.MaxInt, Seed: math.MinInt64, Line: math.MinInt,
		Profile:    config.ProfileKey{Cores: math.MinInt, L1SizeBytes: math.MaxInt, L2LineBytes: -1, DRAMLatency: math.MaxInt},
		ALULatency: math.MinInt, IssueWidth: math.MaxInt}
	long := base
	long.Kernel = strings.Repeat("long_kernel_name_", 40) // past Hash's stack buffer
	keys := []Key{base, every, extreme, long, {}}
	for _, name := range []string{"", "ядро_ß", "a|b=c", "\x00\xff\x80", "tab\tnew\nline"} {
		k := base
		k.Kernel = name
		keys = append(keys, k)
	}
	for _, seed := range []int64{-1, -42, math.MinInt64 + 1, math.MaxInt64} {
		k := base
		k.Seed = seed
		keys = append(keys, k)
	}
	for i, k := range keys {
		want := fmtKey(k)
		if got := string(k.appendCanonical(nil)); got != want {
			t.Errorf("key %d: canonical = %q, want %q", i, got, want)
		}
		if got := k.Profile.String(); got != fmtProfile(k.Profile) {
			t.Errorf("key %d: ProfileKey.String = %q, want %q", i, got, fmtProfile(k.Profile))
		}
		sum := sha256.Sum256([]byte(want))
		if got, want := k.Hash(), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("key %d: Hash = %s, want %s", i, got, want)
		}
	}
}

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder, once as
// given and once with the trailer recomputed, so a mutation reaches the
// parser past the checksum. Nothing may panic, and an accepted input must
// re-encode to exactly its own bytes: the decoder accepts one encoding
// of each entry, the one Put writes. The seeds are a clean entry and
// every in-memory case of the defect table; they back the checked-in
// corpus under testdata/fuzz/FuzzDecodeEntry.
func FuzzDecodeEntry(f *testing.F) {
	k := testKey()
	clean, err := encodeEntry(testEntry(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	for _, tc := range defectCases(f, k) {
		if tc.sparse == 0 {
			f.Add(tc.data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= sha256.Size {
			inputs = append(inputs, reseal(data[:len(data)-sha256.Size]))
		}
		for _, in := range inputs {
			e, err := decodeEntry(in)
			if err != nil {
				continue
			}
			out, err := encodeEntry(e)
			if err != nil {
				t.Fatalf("re-encoding an accepted entry failed: %v", err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("an accepted %d-byte entry re-encodes to %d different bytes", len(in), len(out))
			}
		}
	})
}
