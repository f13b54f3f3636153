// Package store implements the content-addressed, disk-backed profile
// store: the persistence layer for a session's structural prep — the
// cache profile, per-PC latency table, and the representative warps
// with their interval profiles, which GPUMech computes once per (kernel,
// grid, cache geometry) and then reuses for every evaluation.
//
// Building that prep is the dominant cost of serving (the serve latency
// study measured the estimate/session path at ~98% of service time), and
// before this package it lived only in process memory: every restart of
// gpumech-serve re-traced and re-simulated every kernel it had ever
// warmed. The store makes warm profiles durable and shareable: any
// number of processes can point at one directory, writers never tear
// (atomic tmp+rename), and readers verify a checksum over the whole
// entry so a corrupt or truncated file degrades to a cache miss and a
// rebuild — never to a wrong profile.
//
// Entries are content-addressed: the file name is the SHA-256 of the
// canonical key string (kernel, blocks, seed, line size, and every
// configuration field the prep depends on), so distinct keys can never
// collide on a path and equal keys always agree on one. The key is also
// embedded in the entry header and re-verified on read, making even a
// hash-collision or a mis-placed file a miss rather than an aliased
// profile.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/interval"
	"gpumech/internal/obs"
)

// Key identifies one stored prep entry. It extends config.ProfileKey —
// the cache-geometry identity that the cache profile depends on — with
// the trace identity (kernel, blocks, seed, line size) and the
// remaining configuration fields the PC table and interval profiles
// fold in: the compute-class latencies and the issue width. Two
// configurations with equal Keys produce byte-identical prep, so the
// Key is the correct content address; configurations that differ only
// in WarpsPerCore, MSHREntries or DRAMBandwidthGBps share an entry.
type Key struct {
	Kernel string
	Blocks int
	Seed   int64
	Line   int

	Profile config.ProfileKey

	ALULatency  int
	FPLatency   int
	SFULatency  int
	SMemLatency int
	IssueWidth  int
}

// KeyFor derives the store key of a kernel trace identity under cfg.
func KeyFor(kernel string, blocks int, seed int64, line int, cfg config.Config) Key {
	return Key{
		Kernel:      kernel,
		Blocks:      blocks,
		Seed:        seed,
		Line:        line,
		Profile:     cfg.ProfileKey(),
		ALULatency:  cfg.ALULatency,
		FPLatency:   cfg.FPLatency,
		SFULatency:  cfg.SFULatency,
		SMemLatency: cfg.SMemLatency,
		IssueWidth:  cfg.IssueWidth,
	}
}

// appendCanonical appends the key's canonical rendering, the string that
// is hashed into the content address, to b:
//
//	v<formatVersion>|kernel=K|blocks=B|seed=S|line=L|profile=P|alu=A|fp=F|sfu=U|smem=M|issue=I
//
// with P the config.ProfileKey's String form. Every field appears with a
// tag, so no two distinct keys can render equal.
func (k Key) appendCanonical(b []byte) []byte {
	b = append(b, 'v')
	b = strconv.AppendInt(b, formatVersion, 10)
	b = append(b, "|kernel="...)
	b = append(b, k.Kernel...)
	b = appendField(b, "|blocks=", int64(k.Blocks))
	b = appendField(b, "|seed=", k.Seed)
	b = appendField(b, "|line=", int64(k.Line))
	b = append(b, "|profile="...)
	b = k.Profile.Append(b)
	b = appendField(b, "|alu=", int64(k.ALULatency))
	b = appendField(b, "|fp=", int64(k.FPLatency))
	b = appendField(b, "|sfu=", int64(k.SFULatency))
	b = appendField(b, "|smem=", int64(k.SMemLatency))
	return appendField(b, "|issue=", int64(k.IssueWidth))
}

// appendField appends a tag and a decimal integer.
func appendField(b []byte, tag string, v int64) []byte {
	return strconv.AppendInt(append(b, tag...), v, 10)
}

// Hash returns the content address of the key: the hex SHA-256 of its
// canonical rendering.
func (k Key) Hash() string {
	var buf [256]byte
	sum := sha256.Sum256(k.appendCanonical(buf[:0]))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// Entry is one stored prep: everything an evaluation needs beyond the
// per-request model parameters, plus the session metadata the serving
// document reports (warp count and traced instruction total), so a
// store hit can answer /v1/evaluate without the trace ever existing in
// the process.
type Entry struct {
	Key Key

	Warps      int
	TotalInsts int64

	Profile *cache.Profile
	Table   *interval.PCTable

	// WarpProfiles is index-aligned with the kernel's warps. Only the
	// representatives' profiles are stored, so an entry from Get (or
	// Slim) holds those and nil everywhere else. An entry handed to Put
	// may instead carry every warp's profile.
	WarpProfiles []*interval.Profile

	// Rep, MaxRep and MinRep are the representative warps under the
	// Clustering, Max and Min selection methods. Slim (and so Put)
	// derives MaxRep and MinRep when WarpProfiles is complete; k-means
	// is the caller's.
	Rep    int
	MaxRep int
	MinRep int
}

// RepFor returns the representative warp under selection method m.
func (e *Entry) RepFor(m cluster.Method) (int, error) {
	switch m {
	case cluster.Clustering:
		return e.Rep, nil
	case cluster.Max:
		return e.MaxRep, nil
	case cluster.Min:
		return e.MinRep, nil
	}
	return 0, fmt.Errorf("store: unknown selection method %v", m)
}

// Slim derives MaxRep and MinRep if WarpProfiles is complete, then drops
// every profile that is not a representative's: the entry the
// per-request model stages read, a few kilobytes where every warp's
// profiles are megabytes. It fails if a representative has no profile.
func (e *Entry) Slim() error {
	if len(e.WarpProfiles) > 0 && !slices.Contains(e.WarpProfiles, nil) {
		// Neither selection can fail on a non-empty, nil-free set.
		e.MaxRep, _ = cluster.Select(e.WarpProfiles, cluster.Max)
		e.MinRep, _ = cluster.Select(e.WarpProfiles, cluster.Min)
	}
	slim := make([]*interval.Profile, len(e.WarpProfiles))
	for _, r := range e.reps() {
		if r < 0 || r >= len(e.WarpProfiles) || e.WarpProfiles[r] == nil {
			return fmt.Errorf("store: representative warp %d has no profile (%d warps)", r, len(e.WarpProfiles))
		}
		slim[r] = e.WarpProfiles[r]
	}
	e.WarpProfiles = slim
	return nil
}

// reps returns the distinct representative warps in ascending order,
// the order the format stores their profiles in.
func (e *Entry) reps() []int {
	rs := []int{e.Rep, e.MaxRep, e.MinRep}
	slices.Sort(rs)
	return slices.Compact(rs)
}

// Store is a handle on one profile-store directory. It is safe for
// concurrent use by any number of goroutines and processes: writes are
// atomic renames of fully written temp files, and reads verify the
// entry checksum before believing a byte of it.
type Store struct {
	dir string
	obs *obs.Observer
}

// Open returns a store over dir, creating the directory if needed. The
// observer (which may be nil) receives the store's counters: hits,
// misses, corrupt entries, puts, and byte totals.
func Open(dir string, o *obs.Observer) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, obs: o}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the content-addressed path of k inside the store.
func (s *Store) Path(k Key) string {
	return filepath.Join(s.dir, k.Hash()+".gmpf")
}

// Get looks k up. The second return is false on any miss: absent entry,
// unreadable file, a file over maxEntryBytes, wrong magic, version skew,
// truncation, checksum mismatch, a malformed body, or a header key that
// does not equal k. A store can therefore never serve a wrong profile —
// every defect degrades to "rebuild it".
func (s *Store) Get(k Key) (*Entry, bool) {
	f, err := os.Open(s.Path(k))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.obs.Counter("store.misses").Inc()
		} else {
			s.obs.Counter("store.read_errors").Inc()
			s.obs.Counter("store.misses").Inc()
		}
		return nil, false
	}
	b, err := readEntryFile(f)
	f.Close()
	var e *Entry
	if err == nil {
		e, err = decodeEntry(b)
	}
	// A file whose content was written for a different key (hash
	// collision, copied file, tampering) is a miss, never an alias.
	if err != nil || e.Key != k {
		s.obs.Counter("store.corrupt").Inc()
		s.obs.Counter("store.misses").Inc()
		return nil, false
	}
	s.obs.Counter("store.hits").Inc()
	s.obs.Counter("store.read_bytes").Add(int64(len(b)))
	return e, true
}

// readEntryFile reads f whole into one buffer of its exact size. A file
// larger than maxEntryBytes is refused unread.
func readEntryFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxEntryBytes {
		return nil, fmt.Errorf("store: %d-byte entry exceeds the %d-byte cap", fi.Size(), maxEntryBytes)
	}
	b := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Put writes e under k atomically: the entry is fully written and
// synced to a temp file in the store directory, then renamed into
// place. Concurrent writers of the same key race benignly — the key is
// a pure function of the inputs, so both write identical content and
// either rename wins. A reader never observes a partial entry. Put sets
// e.Key and writes the slim form of e (see Slim), so a representative
// without a profile fails the Put.
func (s *Store) Put(k Key, e *Entry) error {
	e.Key = k
	slim := *e
	if err := slim.Slim(); err != nil {
		s.obs.Counter("store.put_errors").Inc()
		return err
	}
	b, err := encodeEntry(&slim)
	if err != nil {
		s.obs.Counter("store.put_errors").Inc()
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		s.obs.Counter("store.put_errors").Inc()
		return fmt.Errorf("store: %w", err)
	}
	// CreateTemp makes the file 0600; an entry must be readable by every
	// process that shares the directory, whoever wrote it.
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(b)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.Path(k))
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.obs.Counter("store.put_errors").Inc()
		return fmt.Errorf("store: writing %s: %w", k.Hash(), err)
	}
	s.obs.Counter("store.puts").Inc()
	s.obs.Counter("store.write_bytes").Add(int64(len(b)))
	return nil
}

// Len reports the number of entries currently in the store directory
// (diagnostics and tests; the store itself never enumerates).
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range ents {
		if filepath.Ext(d.Name()) == ".gmpf" {
			n++
		}
	}
	return n, nil
}
