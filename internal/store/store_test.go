package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/interval"
	"gpumech/internal/isa"
	"gpumech/internal/obs"
)

// testEntry builds a small synthetic prep entry. The values are
// arbitrary but fixed, including awkward floats (negative zero, subnormal
// magnitudes) that a text round-trip would mangle — the codec must
// preserve them bit for bit.
func testEntry(k Key) *Entry {
	cfg := config.Baseline()
	prof := &cache.Profile{Cfg: cfg, PCs: map[int]*cache.PCStats{
		3: {Insts: 40, Reqs: 120, L1HitInsts: 10, L2HitInsts: 20, L2MissInsts: 10,
			L1HitReqs: 30, L2HitReqs: 60, L2MissReqs: 30},
		7: {IsStore: true, Insts: 8, Reqs: 8, L1HitInsts: 8, L1HitReqs: 8},
		1: {Insts: 16, Reqs: 16, L2MissInsts: 16, L2MissReqs: 16},
	}}
	table := &interval.PCTable{
		Latency:     []float64{0, 10.5, 0, 400.25, 0, 0, 0, 28},
		L1MissRate:  []float64{0, 0.75, 0, 1, 0, 0, 0, 0},
		L2MissRate:  []float64{0, 0.25, 0, 1, 0, 0, 0, 0},
		DistL1:      []float64{0, 0.25, 0, 0, 0, 0, 0, 1},
		DistL2:      []float64{0, 0.5, 0, 0, 0, 0, 0, 0},
		DistDRAM:    []float64{0, 0.25, 0, 1, 0, 0, 0, 0},
		MergeWindow: 32,
	}
	warps := []*interval.Profile{
		{Insts: 64, Stall: 120.5, IssueRate: 1, Intervals: []interval.Interval{
			{Insts: 32, StallCycles: 100, MemInsts: 4, MSHRReqs: 3.5, DRAMReqs: 1.25,
				MSHRLoadInsts: 2, DRAMLoadInsts: 1, SFUInsts: 0, CausePC: 3, CauseClass: isa.Class(2)},
			{Insts: 32, StallCycles: 20.5, MemInsts: 0, CausePC: -1, CauseClass: isa.Class(0)},
		}},
		{Insts: 64, Stall: math_Copysign0(), IssueRate: 1, Intervals: []interval.Interval{
			{Insts: 64, StallCycles: 5e-324, MemInsts: 1, MSHRReqs: 1, CausePC: 7},
		}},
	}
	// MaxRep and MinRep are what Put derives from the two profiles, and
	// together with Rep they cover both warps, so the entry Get returns
	// is this one exactly.
	return &Entry{Key: k, Warps: 2, TotalInsts: 128,
		Profile: prof, Table: table, WarpProfiles: warps, Rep: 1, MaxRep: 1, MinRep: 0}
}

// math_Copysign0 returns negative zero without tripping any constant
// folding; Float64bits(-0) != Float64bits(0), so identity checks notice
// if the codec drops the sign.
func math_Copysign0() float64 {
	z := 0.0
	return -z
}

func testKey() Key {
	return KeyFor("synthetic_kernel", 8, 42, 128, config.Baseline())
}

func openTestStore(t *testing.T) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), obs.NewObserver(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func mustPut(t *testing.T, s *Store, k Key, e *Entry) []byte {
	t.Helper()
	if err := s.Put(k, e); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStoreRoundTrip(t *testing.T) {
	s, reg := openTestStore(t)
	k := testKey()
	want := testEntry(k)
	raw := mustPut(t, s, k, want)

	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded entry differs from encoded:\n got %+v\nwant %+v", got, want)
	}
	if h := reg.Counter("store.hits").Value(); h != 1 {
		t.Errorf("store.hits = %d, want 1", h)
	}
	if n := reg.Counter("store.write_bytes").Value(); n != int64(len(raw)) {
		t.Errorf("store.write_bytes = %d, want file size %d", n, len(raw))
	}

	// Determinism: encoding the same entry again writes identical bytes
	// (the map section is sorted; floats are raw bits).
	if again := mustPut(t, s, k, testEntry(k)); !bytes.Equal(again, raw) {
		t.Errorf("second Put of equal entry produced different bytes (%d vs %d)", len(again), len(raw))
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1, nil", n, err)
	}
}

// defectCase is one damaged entry file: its bytes, and for a file over
// the size cap the size it is extended to (sparsely) after writing.
type defectCase struct {
	name   string
	data   []byte
	sparse int64
}

// defectCases is every way the tests damage an entry for k on disk. The
// cases with a recomputed checksum reach the parser, so a check past the
// digest is what rejects them.
func defectCases(t testing.TB, k Key) []defectCase {
	t.Helper()
	e := testEntry(k)
	clean, err := encodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	hdr := func() *entryHeader {
		return &entryHeader{Key: k, Warps: 2, TotalInsts: 128, Cfg: e.Profile.Cfg,
			Rep: 1, MaxRep: 1, MinRep: 0, NumPCs: len(e.Profile.PCs),
			TableLen: len(e.Table.Latency), NumWarps: 2}
	}
	framed := func(h *entryHeader) []byte {
		return frameEntry(h, e.Profile, e.Table, e.WarpProfiles)
	}
	n := len(clean) - sha256.Size
	payload := clean[:n:n] // an append copies, leaving clean intact

	versionSkewed := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(versionSkewed[4:6], formatVersion+1) // a version from the future

	// A header naming a representative past the last warp.
	badRep := hdr()
	badRep.MinRep = 2

	// Counts far past what the bytes hold: each would have sized an
	// allocation before the parser noticed the body was too short.
	manyPCs, longTable, manyWarps := hdr(), hdr(), hdr()
	manyPCs.NumPCs = 1 << 26
	longTable.TableLen = 1 << 22
	manyWarps.NumWarps = maxWarps + 1

	// Warp 1's profile ends the body; with no intervals its interval
	// count, 0, is the payload's last byte.
	manyIntervals := func() []byte {
		noIvs := testEntry(k)
		noIvs.WarpProfiles[1].Intervals = nil
		b, err := encodeEntry(noIvs)
		if err != nil {
			t.Fatal(err)
		}
		payload := b[:len(b)-sha256.Size]
		if payload[len(payload)-1] != 0 {
			t.Fatal("the payload does not end in warp 1's interval count")
		}
		return reseal(binary.AppendUvarint(payload[:len(payload)-1:len(payload)-1], 1<<22))
	}()

	return []defectCase{
		{name: "empty file"},
		{name: "shorter than trailer", data: clean[:10]},
		{name: "truncated mid-header", data: clean[:40]},
		{name: "truncated mid-body", data: clean[:len(clean)/2]},
		{name: "missing last byte", data: clean[:len(clean)-1]},
		{name: "bad magic", data: append([]byte("JUNK"), clean[4:]...)},
		{name: "version skew", data: reseal(versionSkewed)},
		{name: "representative out of range", data: framed(badRep)},
		{name: "flipped payload bit", data: flip(clean, 8)},
		{name: "flipped body bit", data: flip(clean, len(clean)/2)},
		{name: "flipped checksum bit", data: flip(clean, len(clean)-1)},
		{name: "trailing garbage", data: append(append([]byte(nil), clean...), 0xEE)},
		{name: "trailing garbage under a valid checksum", data: reseal(append(payload, 0xEE))},
		{name: "entry for a different key", data: func() []byte {
			other := KeyFor("other_kernel", 8, 42, 128, config.Baseline())
			b, err := encodeEntry(testEntry(other))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}()},
		{name: "inflated NumPCs", data: framed(manyPCs)},
		{name: "inflated TableLen", data: framed(longTable)},
		{name: "NumWarps over the cap", data: framed(manyWarps)},
		{name: "inflated interval count", data: manyIntervals},
		{name: "over the size cap", data: clean, sparse: maxEntryBytes + 1},
	}
}

// reseal frames payload, an entry without its trailer, with a fresh
// checksum.
func reseal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// TestStorePutReadableByAll pins an entry's mode: a store directory is
// shared by processes of several users, and an entry only its writer can
// read would be a read error and a rebuild for every other one.
func TestStorePutReadableByAll(t *testing.T) {
	s, _ := openTestStore(t)
	k := testKey()
	mustPut(t, s, k, testEntry(k))
	fi, err := os.Stat(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("entry mode = %v, want %v", perm, os.FileMode(0o644))
	}
}

// TestStoreDefectsDegradeToMiss is the crash-safety table: every way an
// entry can be damaged on disk — truncation anywhere, a bad magic, a
// flipped payload or checksum bit, a version from the future, trailing
// garbage, counts past what the file holds, a file over the size cap,
// or a file written for a different key — must read as a miss without
// allocating for the damage, and a rebuild must restore the exact
// original bytes. The store can be slow after a defect; it can never be
// wrong.
func TestStoreDefectsDegradeToMiss(t *testing.T) {
	k := testKey()
	clean := func() []byte {
		s, _ := openTestStore(t)
		return mustPut(t, s, k, testEntry(k))
	}()

	for _, tc := range defectCases(t, k) {
		t.Run(tc.name, func(t *testing.T) {
			s, reg := openTestStore(t)
			if err := os.WriteFile(s.Path(k), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.sparse > 0 {
				if err := os.Truncate(s.Path(k), tc.sparse); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, ok := s.Get(k)
			runtime.ReadMemStats(&after)
			if ok {
				t.Fatalf("Get returned an entry (%d warps) from a damaged file", e.Warps)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("Get allocated %d bytes before missing, want under 1 MiB", d)
			}
			if c := reg.Counter("store.corrupt").Value(); c != 1 {
				t.Errorf("store.corrupt = %d, want 1", c)
			}
			if m := reg.Counter("store.misses").Value(); m != 1 {
				t.Errorf("store.misses = %d, want 1", m)
			}
			if h := reg.Counter("store.hits").Value(); h != 0 {
				t.Errorf("store.hits = %d, want 0", h)
			}
			// Rebuild over the damage: byte-identical to the pristine file.
			rebuilt := mustPut(t, s, k, testEntry(k))
			if !bytes.Equal(rebuilt, clean) {
				t.Errorf("rebuilt entry differs from pristine bytes (%d vs %d)", len(rebuilt), len(clean))
			}
			if _, ok := s.Get(k); !ok {
				t.Error("Get missed the rebuilt entry")
			}
		})
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x01
	return c
}

// TestStoreKeepsOnlyRepresentatives puts every warp's profile and checks
// that Put derives the Max and Min representatives, that exactly the
// three representatives' profiles come back (index-aligned, nil
// elsewhere, bit-identical), and that a slim entry re-puts to the same
// bytes.
func TestStoreKeepsOnlyRepresentatives(t *testing.T) {
	s, _ := openTestStore(t)
	k := testKey()
	full := testEntry(k)
	base := full.WarpProfiles[0]
	full.WarpProfiles = nil
	for i, stall := range []float64{50, 900, 50, 0, 50} {
		p := *base
		p.Stall = stall
		p.Insts += i // distinct profiles, so a misplaced one shows
		full.WarpProfiles = append(full.WarpProfiles, &p)
	}
	full.Warps, full.Rep, full.MaxRep, full.MinRep = 5, 2, 0, 0
	raw := mustPut(t, s, k, full)

	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if got.Rep != 2 || got.MaxRep != 3 || got.MinRep != 1 {
		t.Errorf("representatives Rep=%d MaxRep=%d MinRep=%d, want 2, 3, 1", got.Rep, got.MaxRep, got.MinRep)
	}
	if len(got.WarpProfiles) != 5 {
		t.Fatalf("got %d warp slots, want 5", len(got.WarpProfiles))
	}
	for i, p := range got.WarpProfiles {
		if rep := i == 1 || i == 2 || i == 3; rep != (p != nil) {
			t.Errorf("warp %d: profile present=%v, want %v", i, p != nil, rep)
		} else if rep && !reflect.DeepEqual(p, full.WarpProfiles[i]) {
			t.Errorf("warp %d: profile differs after the round trip", i)
		}
	}

	slim := *full
	if err := slim.Slim(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&slim, got) {
		t.Errorf("Slim differs from the entry Get returns:\n slim %+v\n  got %+v", slim, got)
	}
	if again := mustPut(t, s, k, got); !bytes.Equal(again, raw) {
		t.Errorf("re-putting the slim entry changed the bytes (%d vs %d)", len(again), len(raw))
	}
	for m, want := range map[cluster.Method]int{cluster.Clustering: 2, cluster.Max: 3, cluster.Min: 1} {
		if r, err := got.RepFor(m); err != nil || r != want {
			t.Errorf("RepFor(%v) = %d, %v; want %d", m, r, err, want)
		}
	}
	if _, err := got.RepFor(cluster.Method(99)); err == nil {
		t.Error("RepFor accepted an unknown method")
	}
}

// TestStorePutMissingRepresentativeFails pins that an entry whose
// representative has no profile is refused, leaving no file behind.
func TestStorePutMissingRepresentativeFails(t *testing.T) {
	s, reg := openTestStore(t)
	k := testKey()
	e := testEntry(k)
	e.WarpProfiles[e.MinRep] = nil
	if err := s.Put(k, e); err == nil {
		t.Fatal("Put accepted an entry missing the Min representative's profile")
	}
	if n := reg.Counter("store.put_errors").Value(); n != 1 {
		t.Errorf("store.put_errors = %d, want 1", n)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Errorf("Len = %d, %v; want 0, nil", n, err)
	}
	if err := e.Slim(); err == nil {
		t.Error("Slim accepted an entry missing a representative's profile")
	}
}

// TestStoreTruncationSweep brute-forces every prefix length of a valid
// entry: no truncation point may decode successfully.
func TestStoreTruncationSweep(t *testing.T) {
	k := testKey()
	s, _ := openTestStore(t)
	clean := mustPut(t, s, k, testEntry(k))
	for n := 0; n < len(clean); n++ {
		if _, err := decodeEntry(clean[:n]); err == nil {
			t.Fatalf("decodeEntry accepted a %d-byte prefix of a %d-byte entry", n, len(clean))
		}
	}
	if _, err := decodeEntry(clean); err != nil {
		t.Fatalf("decodeEntry rejected the full entry: %v", err)
	}
}

// TestStoreConcurrentWriters races many writers of one key against
// readers. Writers of equal content race benignly: every Put succeeds,
// every concurrent Get is either a miss (before the first rename lands)
// or a full, correct entry — never a tear — and the surviving file is
// byte-identical to a serial write.
func TestStoreConcurrentWriters(t *testing.T) {
	s, _ := openTestStore(t)
	k := testKey()
	want := testEntry(k)

	const writers, readers = 8, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(k, testEntry(k)); err != nil {
				errs <- fmt.Errorf("concurrent Put: %w", err)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				if e, ok := s.Get(k); ok && !reflect.DeepEqual(e, want) {
					errs <- fmt.Errorf("concurrent Get observed a torn entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	got, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := openTestStore(t)
	if ref := mustPut(t, serial, k, testEntry(k)); !bytes.Equal(got, ref) {
		t.Errorf("post-race file differs from a serial write (%d vs %d bytes)", len(got), len(ref))
	}
	// No leaked temp files.
	tmps, err := filepath.Glob(filepath.Join(s.Dir(), "put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("leaked temp files after concurrent writes: %v", tmps)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1, nil", n, err)
	}
}

// TestStoreKeyHashing pins the content-address properties: equal keys
// share a path, any field change moves the path, and configurations
// differing only in prep-irrelevant fields (warps, MSHRs, bandwidth)
// share an entry.
func TestStoreKeyHashing(t *testing.T) {
	base := testKey()
	if base.Hash() != testKey().Hash() {
		t.Error("equal keys hashed differently")
	}
	variants := []Key{
		func() Key { k := base; k.Kernel = "x"; return k }(),
		func() Key { k := base; k.Blocks++; return k }(),
		func() Key { k := base; k.Seed++; return k }(),
		func() Key { k := base; k.Line *= 2; return k }(),
		func() Key { k := base; k.ALULatency++; return k }(),
		func() Key { k := base; k.FPLatency++; return k }(),
		func() Key { k := base; k.SFULatency++; return k }(),
		func() Key { k := base; k.SMemLatency++; return k }(),
		func() Key { k := base; k.IssueWidth++; return k }(),
	}
	seen := map[string]bool{base.Hash(): true}
	for i, v := range variants {
		if seen[v.Hash()] {
			t.Errorf("variant %d collides with an earlier key", i)
		}
		seen[v.Hash()] = true
	}

	cfg := config.Baseline()
	if KeyFor("k", 8, 42, 128, cfg) != KeyFor("k", 8, 42, 128, cfg.WithWarps(4).WithMSHRs(99).WithBandwidth(1)) {
		t.Error("prep-irrelevant config fields changed the store key")
	}
}
