package gpumech

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/trace"
)

// legacyTracePath is the one v1 (gob) trace file the repository keeps: an
// input every reader must reject now that v2 is the only format.
var legacyTracePath = filepath.Join("internal", "trace", "testdata", "fuzz-seed.legacy.trace")

// TestColumnarPathByteIdentical pins the file path of the trace format
// for every paper kernel and both policies: a session's trace, saved as
// a v2 file and reopened with NewSessionFromTraceFile, gives estimates
// byte-for-byte identical to the session it came from. Decode drift,
// cursor ordering or a lost record field fails here before it can move
// a golden figure.
func TestColumnarPathByteIdentical(t *testing.T) {
	names := kernels.PaperNames()
	if testing.Short() || raceEnabled {
		// All 40 kernels are most of the package's time under the race
		// detector.
		names = names[:6]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sess, err := NewSession(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "col.trace")
			if err := sess.lazy.tr.Save(path); err != nil {
				t.Fatal(err)
			}
			file, err := NewSessionFromTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range []Policy{RR, GTO} {
				want, got := estimateJSON(t, sess, pol), estimateJSON(t, file, pol)
				if got != want {
					t.Errorf("%s: file estimate differs from the session's\n want %s\n  got %s", pol, want, got)
				}
			}
		})
	}
}

// estimateJSON returns s's baseline estimate under pol as JSON.
func estimateJSON(t *testing.T, s *Session, pol Policy) string {
	t.Helper()
	est, err := s.Estimate(DefaultConfig(), pol)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTraceCacheReuse pins the WithTraceCache contract: the first session
// writes a trace file, the second loads it instead of emulating, and both
// produce the same estimate as an uncached session.
func TestTraceCacheReuse(t *testing.T) {
	const kernel = "sdk_vectoradd"
	dir := t.TempDir()

	plain, err := NewSession(kernel)
	if err != nil {
		t.Fatal(err)
	}
	want := estimateJSON(t, plain, RR)

	first, err := NewSession(kernel, WithTraceCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("trace cache holds %d files after first session, want 1", len(ents))
	}
	if got := estimateJSON(t, first, RR); got != want {
		t.Errorf("cache-miss session estimate differs:\n want %s\n  got %s", want, got)
	}

	reg := obs.NewRegistry()
	second, err := NewSession(kernel, WithTraceCache(dir), WithObserver(NewObserver(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if got := estimateJSON(t, second, RR); got != want {
		t.Errorf("cache-hit session estimate differs:\n want %s\n  got %s", want, got)
	}
	if n := reg.Counter("trace.kernels").Value(); n != 0 {
		t.Errorf("cache-hit session emulated %d kernels, want 0", n)
	}
}

// TestTraceFileRejectsLegacy pins that a v1 trace file is an error that
// says the file is not a v2 trace, not a session.
func TestTraceFileRejectsLegacy(t *testing.T) {
	if _, err := NewSessionFromTraceFile(legacyTracePath); err == nil || !strings.Contains(err.Error(), "not a v2 trace") {
		t.Errorf("NewSessionFromTraceFile(v1 trace): err = %v, want a not-a-v2-trace error", err)
	}
}

// TestTraceCacheRebuildsBadEntries pins that a trace cache entry the
// reader rejects — v1 bytes, or a truncated v2 file — is never trusted:
// the session re-emulates, answers the uncached estimate, and rewrites
// the entry as the v2 trace an uncached session builds.
func TestTraceCacheRebuildsBadEntries(t *testing.T) {
	const kernel = "sdk_vectoradd"
	plain, err := NewSession(kernel)
	if err != nil {
		t.Fatal(err)
	}
	want := estimateJSON(t, plain, RR)
	var wantEnc bytes.Buffer
	if err := plain.lazy.tr.Encode(&wantEnc); err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(legacyTracePath)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		entry func(good []byte) []byte
	}{
		{"v1 entry", func([]byte) []byte { return legacy }},
		{"truncated entry", func(good []byte) []byte { return good[:len(good)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := NewSession(kernel, WithTraceCache(dir)); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != 1 {
				t.Fatalf("trace cache holds %d files (%v), want 1", len(ents), err)
			}
			path := filepath.Join(dir, ents[0].Name())
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.entry(good), 0o644); err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			sess, err := NewSession(kernel, WithTraceCache(dir), WithObserver(NewObserver(reg, nil)))
			if err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("trace.kernels").Value(); n != 1 {
				t.Errorf("session over a bad entry emulated %d kernels, want 1", n)
			}
			if got := estimateJSON(t, sess, RR); got != want {
				t.Errorf("estimate differs from the uncached session:\n want %s\n  got %s", want, got)
			}
			tr, err := trace.Load(path)
			if err != nil {
				t.Fatalf("entry not rewritten as v2: %v", err)
			}
			var enc bytes.Buffer
			if err := tr.Encode(&enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), wantEnc.Bytes()) {
				t.Error("rewritten entry differs from the uncached session's trace")
			}
		})
	}
}
