package gpumech

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gpumech/internal/obs"
	"gpumech/internal/store"
)

// estimateFingerprint renders an estimate to bytes so identity checks
// compare every field bit for bit (JSON renders float64 exactly).
func estimateFingerprint(t *testing.T, est *Estimate) string {
	t.Helper()
	b, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestProfileStoreByteIdentity pins the store's core guarantee: an
// estimate served through the profile store — both the build-and-put
// path and the disk-hit path — is byte-identical to one computed without
// any store.
func TestProfileStoreByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig().WithWarps(16)

	plain, err := NewSession("sdk_vectoradd", WithBlocks(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Estimate(cfg, GTO)
	if err != nil {
		t.Fatal(err)
	}

	// Cold store: the estimate is built, persisted, and must match.
	cold, err := NewSession("sdk_vectoradd", WithBlocks(8), WithProfileStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cold.Estimate(cfg, GTO)
	if err != nil {
		t.Fatal(err)
	}
	if estimateFingerprint(t, got) != estimateFingerprint(t, want) {
		t.Errorf("store build-path estimate differs:\n want %s\n  got %s",
			estimateFingerprint(t, want), estimateFingerprint(t, got))
	}

	// Warm store, fresh session: the estimate comes from disk and must
	// still match, and the session must never have traced.
	reg := obs.NewRegistry()
	warm, err := NewSession("sdk_vectoradd", WithBlocks(8), WithProfileStore(dir),
		WithObserver(NewObserver(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := warm.Estimate(cfg, GTO)
	if err != nil {
		t.Fatal(err)
	}
	if estimateFingerprint(t, got2) != estimateFingerprint(t, want) {
		t.Errorf("store hit-path estimate differs:\n want %s\n  got %s",
			estimateFingerprint(t, want), estimateFingerprint(t, got2))
	}
	if n := reg.Counter("trace.kernels").Value(); n != 0 {
		t.Errorf("store-warm session traced %d kernels, want 0", n)
	}
	if h := reg.Counter("store.hits").Value(); h != 1 {
		t.Errorf("store.hits = %d, want 1", h)
	}
	// Metadata must be answerable without the trace.
	if warm.Warps() != plain.Warps() || warm.TotalInsts() != plain.TotalInsts() {
		t.Errorf("store-warm metadata (%d warps, %d insts) != traced (%d, %d)",
			warm.Warps(), warm.TotalInsts(), plain.Warps(), plain.TotalInsts())
	}
	if n := reg.Counter("trace.kernels").Value(); n != 0 {
		t.Errorf("metadata accessors forced a trace (%d kernels)", n)
	}
}

// TestProfileStoreSelectionMethods checks Max/Min selection through the
// store: the stored entry persists the Clustering, Max and Min
// representatives and only their profiles, and every method must agree
// with the storeless path.
func TestProfileStoreSelectionMethods(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()

	plain, err := NewSession("micro_copy", WithBlocks(8))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := NewSession("micro_copy", WithBlocks(8), WithProfileStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Clustering, MaxWarp, MinWarp} {
		want, err := plain.EstimateWith(cfg, RR, MTMSHRBand, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stored.EstimateWith(cfg, RR, MTMSHRBand, m)
		if err != nil {
			t.Fatal(err)
		}
		if estimateFingerprint(t, got) != estimateFingerprint(t, want) {
			t.Errorf("method %v: store estimate differs", m)
		}
	}

	// Second process over the same directory: every method again, now
	// from the disk hit.
	hit, err := NewSession("micro_copy", WithBlocks(8), WithProfileStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Clustering, MaxWarp, MinWarp} {
		want, err := plain.EstimateWith(cfg, RR, MTMSHRBand, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hit.EstimateWith(cfg, RR, MTMSHRBand, m)
		if err != nil {
			t.Fatal(err)
		}
		if estimateFingerprint(t, got) != estimateFingerprint(t, want) {
			t.Errorf("method %v: disk-hit estimate differs", m)
		}
	}
}

// TestProfileStoreCorruptEntryRebuilds flips one byte of the stored
// entry and checks the next session treats it as a miss and rebuilds an
// identical file.
func TestProfileStoreCorruptEntryRebuilds(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	s1, err := NewSession("sdk_vectoradd", WithBlocks(4), WithProfileStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.Estimate(cfg, RR)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.gmpf"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one store entry, got %v (err %v)", ents, err)
	}
	clean, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := os.WriteFile(ents[0], corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2, err := NewSession("sdk_vectoradd", WithBlocks(4), WithProfileStore(dir),
		WithObserver(NewObserver(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Estimate(cfg, RR)
	if err != nil {
		t.Fatal(err)
	}
	if estimateFingerprint(t, got) != estimateFingerprint(t, want) {
		t.Errorf("rebuild after corruption produced a different estimate")
	}
	if c := reg.Counter("store.corrupt").Value(); c != 1 {
		t.Errorf("store.corrupt = %d, want 1", c)
	}
	if h := reg.Counter("store.hits").Value(); h != 0 {
		t.Errorf("store.hits = %d, want 0 (corrupt entry must not hit)", h)
	}
	rebuilt, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != string(clean) {
		t.Errorf("rebuilt entry is not byte-identical to the original (%d vs %d bytes)",
			len(rebuilt), len(clean))
	}
}

// storeBenchKernels are the kernels of the serve_store benchmark
// workload, whose entries BenchmarkStoreGet and BenchmarkStorePut use
// at its 128-block grid.
var storeBenchKernels = []string{"rodinia_hotspot", "sdk_reduction", "rodinia_srad2"}

var storeBench struct {
	once    sync.Once
	keys    []store.Key
	entries []*store.Entry
	err     error
}

// storeBenchEntries builds the entries of storeBenchKernels once per
// process, through store-backed Sessions, and reads them back.
func storeBenchEntries(b *testing.B) ([]store.Key, []*store.Entry) {
	storeBench.once.Do(func() {
		dir, err := os.MkdirTemp("", "gpumech-storebench-")
		if err != nil {
			storeBench.err = err
			return
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, nil)
		if err != nil {
			storeBench.err = err
			return
		}
		cfg := DefaultConfig()
		for _, k := range storeBenchKernels {
			s, err := NewSession(k, WithBlocks(128), WithProfileStore(dir))
			if err == nil {
				_, err = s.Estimate(cfg, RR)
			}
			if err != nil {
				storeBench.err = err
				return
			}
			key := store.KeyFor(k, 128, 1, 128, cfg) // a Session's default seed and line
			e, ok := st.Get(key)
			if !ok {
				storeBench.err = fmt.Errorf("%s: the session stored no entry under %s", k, key.Hash())
				return
			}
			storeBench.keys = append(storeBench.keys, key)
			storeBench.entries = append(storeBench.entries, e)
		}
	})
	if storeBench.err != nil {
		b.Fatal(storeBench.err)
	}
	return storeBench.keys, storeBench.entries
}

// BenchmarkStoreGet measures one profile-store read, the call a backend
// makes to re-admit an evicted session: open, read, verify and decode,
// cycling over the serve_store entries. file_B is their mean size.
func BenchmarkStoreGet(b *testing.B) {
	keys, entries := storeBenchEntries(b)
	st, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	for i, k := range keys {
		if err := st.Put(k, entries[i]); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(st.Path(k))
		if err != nil {
			b.Fatal(err)
		}
		size += int(fi.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(keys[i%len(keys)]); !ok {
			b.Fatal("Get missed a stored entry")
		}
	}
	b.ReportMetric(float64(size)/float64(len(keys)), "file_B")
}

// BenchmarkStorePut measures one profile-store write of a serve_store
// entry: encode, write a temp file, fsync, rename.
func BenchmarkStorePut(b *testing.B) {
	keys, entries := storeBenchEntries(b)
	st, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(keys[i%len(keys)], entries[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
