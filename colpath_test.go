package gpumech

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gpumech/internal/kernels"
)

// TestColumnarPathByteIdentical pins the tentpole equivalence claim of the
// columnar trace format: for every paper kernel and both policies, the
// model's output is byte-for-byte identical whether the trace reaches the
// pipeline as rows from the sequential row emulator, as a session's
// column-first emulation (over parallel block ranges, at the default
// worker count), as a columnar v2 file streamed through cursors, or as a
// legacy v1 gob file. Any divergence between the trace builders or the
// storage layouts — decode drift, cursor ordering, lost record fields —
// fails here before it can move a golden figure.
func TestColumnarPathByteIdentical(t *testing.T) {
	names := kernels.PaperNames()
	if testing.Short() || raceEnabled {
		// Two emulations and four sessions per kernel; all 40 kernels
		// are most of the package's time under the race detector.
		names = names[:6]
	}
	policies := []struct {
		name string
		pol  Policy
	}{{"rr", RR}, {"gto", GTO}}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()

			info, err := kernels.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			rows := sequentialRows(t, info, DefaultBlocks(info.WarpsPerBlock))
			sess, err := NewSession(name) // a fresh column-first, parallel emulation
			if err != nil {
				t.Fatal(err)
			}
			// The session's columnar trace, saved in both formats.
			colPath := filepath.Join(dir, "col.trace")
			gobPath := filepath.Join(dir, "gob.trace")
			if err := sess.lazy.tr.Save(colPath); err != nil {
				t.Fatal(err)
			}
			if err := sess.lazy.tr.SaveLegacy(gobPath); err != nil {
				t.Fatal(err)
			}

			sessions := map[string]*Session{
				"row":     sessionFromTrace(rows, sessionOpts{seed: 1, line: 128}),
				"session": sess,
			}
			for label, path := range map[string]string{"columnar-file": colPath, "legacy-file": gobPath} {
				sess, err := NewSessionFromTraceFile(path)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sessions[label] = sess
			}
			if sessions["row"].lazy.tr.Warps[0].Col() != nil || sess.lazy.tr.Warps[0].Col() == nil {
				t.Fatal("row leg is not row-backed or session leg is not columnar-backed")
			}

			for _, p := range policies {
				var wantJSON []byte
				for _, label := range []string{"row", "session", "columnar-file", "legacy-file"} {
					est, err := sessions[label].Estimate(DefaultConfig(), p.pol)
					if err != nil {
						t.Fatalf("%s %s: %v", label, p.name, err)
					}
					got, err := json.Marshal(est)
					if err != nil {
						t.Fatal(err)
					}
					if wantJSON == nil {
						wantJSON = got
						continue
					}
					if string(got) != string(wantJSON) {
						t.Errorf("%s %s: estimate differs from row path\n row: %s\n got: %s",
							label, p.name, wantJSON, got)
					}
				}
			}
		})
	}
}

// TestTraceCacheReuse pins the WithTraceCache contract: the first session
// writes a columnar trace file, the second loads it instead of emulating,
// and both produce the same estimate as an uncached session.
func TestTraceCacheReuse(t *testing.T) {
	const kernel = "sdk_vectoradd"
	dir := t.TempDir()

	estimate := func(sess *Session) []byte {
		t.Helper()
		est, err := sess.Estimate(DefaultConfig(), RR)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(est)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	plain, err := NewSession(kernel)
	if err != nil {
		t.Fatal(err)
	}
	want := estimate(plain)

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
	if got := estimate(first); string(got) != string(want) {
		t.Errorf("cache-miss session estimate differs:\n want %s\n  got %s", want, got)
	}

	second, err := NewSession(kernel, WithTraceCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := estimate(second); string(got) != string(want) {
		t.Errorf("cache-hit session estimate differs:\n want %s\n  got %s", want, got)
	}
	// The cached trace must load columnar, not as materialized rows.
	if second.lazy.tr.Warps[0].Col() == nil {
		t.Error("cache-hit trace is not columnar-backed")
	}
}
