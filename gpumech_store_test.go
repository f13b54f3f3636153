package gpumech

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gpumech/internal/obs"
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
