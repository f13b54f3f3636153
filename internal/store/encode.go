package store

// The on-disk entry format, version 2:
//
//	magic   "GMPF" (4 bytes)
//	version uint16 little-endian
//	header  uvarint length + gob(entryHeader) — the key, the session
//	        metadata, the profile's simulation config, the Clustering,
//	        Max and Min representatives, section counts
//	body    hand-rolled binary sections (see below)
//	trailer SHA-256 (32 bytes) of every preceding byte, magic included
//
// The body holds the bulk data in a compact fixed layout rather than
// gob: counts as uvarints, cycle quantities as raw IEEE-754 bits (so a
// decoded profile is bit-identical to the one encoded — the foundation
// of the store's byte-identical-responses guarantee), and the per-PC
// map sorted by PC so the bytes of an entry are a deterministic
// function of its content. Its sections are the cache profile, the PC
// table, and the interval profiles of the distinct representatives in
// ascending warp order; no other warp's profile is stored.
//
// The version is part of the hashed key (Key.canonical), so a reader
// never opens a file written in another version: such a directory reads
// as all misses and is rebuilt entry by entry.
//
// Readers stream the file once through a SHA-256 tee and compare the
// trailer at the end; any mismatch — including truncation, a flipped
// bit, or trailing garbage after the trailer — is reported as an error,
// which Store.Get converts into a miss.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/interval"
	"gpumech/internal/isa"
)

const formatVersion = 2

var magic = [4]byte{'G', 'M', 'P', 'F'}

// entryHeader is the gob-encoded metadata blob at the head of an entry.
type entryHeader struct {
	Key        Key
	Warps      int
	TotalInsts int64
	Cfg        config.Config // the profile's simulation configuration
	Rep        int
	MaxRep     int
	MinRep     int
	NumPCs     int
	TableLen   int
	NumWarps   int // length of the index-aligned WarpProfiles
}

// maxSectionItems bounds every count decoded from an entry before any
// allocation, so a corrupt length can cost at most a bounded slice, not
// an out-of-memory abort.
const maxSectionItems = 1 << 26

// encodeEntry writes the slim entry e (see Entry.Slim) to w and returns
// the byte count written.
func encodeEntry(w io.Writer, e *Entry) (int64, error) {
	if e.Profile == nil || e.Table == nil {
		return 0, errors.New("store: entry missing profile or table")
	}
	var body []*interval.Profile
	for _, r := range e.reps() {
		body = append(body, e.WarpProfiles[r])
	}
	return writeEntry(w, entryHeader{
		Key:        e.Key,
		Warps:      e.Warps,
		TotalInsts: e.TotalInsts,
		Cfg:        e.Profile.Cfg,
		Rep:        e.Rep,
		MaxRep:     e.MaxRep,
		MinRep:     e.MinRep,
		NumPCs:     len(e.Profile.PCs),
		TableLen:   len(e.Table.Latency),
		NumWarps:   len(e.WarpProfiles),
	}, e.Profile, e.Table, body)
}

// writeEntry frames one entry: magic, version, hdr, the profile and
// table sections, the given warp profiles, and the checksum trailer.
func writeEntry(w io.Writer, hdr entryHeader, prof *cache.Profile, table *interval.PCTable, warps []*interval.Profile) (int64, error) {
	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(w, h)}
	bw := bufio.NewWriter(cw)

	if _, err := bw.Write(magic[:]); err != nil {
		return 0, err
	}
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], formatVersion)
	if _, err := bw.Write(ver[:]); err != nil {
		return 0, err
	}

	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(&hdr); err != nil {
		return 0, fmt.Errorf("store: encoding header: %w", err)
	}
	putUvarint(bw, uint64(hb.Len()))
	if _, err := bw.Write(hb.Bytes()); err != nil {
		return 0, err
	}

	encodeProfile(bw, prof)
	encodeTable(bw, table)
	for _, p := range warps {
		encodeWarpProfile(bw, p)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	// Trailer: the digest of everything flushed so far.
	if _, err := w.Write(h.Sum(nil)); err != nil {
		return 0, err
	}
	return cw.n + sha256.Size, nil
}

// decodeEntry reads one entry from r in a single streaming pass,
// verifying the checksum trailer and rejecting trailing data. The
// returned count is the file size. A trailerReader withholds the final
// 32 bytes from the payload stream so the SHA-256 tee digests exactly
// the bytes the encoder digested, bufio read-ahead included.
func decodeEntry(r io.Reader) (*Entry, int64, error) {
	h := sha256.New()
	cr := &countingReader{r: r}
	tr := newTrailerReader(cr)
	br := bufio.NewReader(io.TeeReader(tr, h))

	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, 0, fmt.Errorf("store: reading magic: %w", err)
	}
	if mg != magic {
		return nil, 0, fmt.Errorf("store: bad magic %q", mg[:])
	}
	var ver [2]byte
	if _, err := io.ReadFull(br, ver[:]); err != nil {
		return nil, 0, fmt.Errorf("store: reading version: %w", err)
	}
	if v := binary.LittleEndian.Uint16(ver[:]); v != formatVersion {
		return nil, 0, fmt.Errorf("store: unsupported version %d (want %d)", v, formatVersion)
	}

	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading header length: %w", err)
	}
	if hlen > maxSectionItems {
		return nil, 0, fmt.Errorf("store: header length %d too large", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(br, hb); err != nil {
		return nil, 0, fmt.Errorf("store: reading header: %w", err)
	}
	var hdr entryHeader
	if err := gob.NewDecoder(bytes.NewReader(hb)).Decode(&hdr); err != nil {
		return nil, 0, fmt.Errorf("store: decoding header: %w", err)
	}
	if hdr.NumPCs < 0 || hdr.NumPCs > maxSectionItems ||
		hdr.TableLen < 0 || hdr.TableLen > maxSectionItems ||
		hdr.NumWarps < 0 || hdr.NumWarps > maxSectionItems {
		return nil, 0, fmt.Errorf("store: header counts out of range")
	}

	e := &Entry{
		Key:        hdr.Key,
		Warps:      hdr.Warps,
		TotalInsts: hdr.TotalInsts,
		Rep:        hdr.Rep,
		MaxRep:     hdr.MaxRep,
		MinRep:     hdr.MinRep,
	}
	reps := e.reps()
	for _, r := range reps {
		if r < 0 || r >= hdr.NumWarps {
			return nil, 0, fmt.Errorf("store: representative %d out of range (%d warps)", r, hdr.NumWarps)
		}
	}
	if e.Profile, err = decodeProfile(br, hdr.Cfg, hdr.NumPCs); err != nil {
		return nil, 0, err
	}
	if e.Table, err = decodeTable(br, hdr.TableLen); err != nil {
		return nil, 0, err
	}
	e.WarpProfiles = make([]*interval.Profile, hdr.NumWarps)
	for _, r := range reps {
		if e.WarpProfiles[r], err = decodeWarpProfile(br); err != nil {
			return nil, 0, fmt.Errorf("store: warp profile %d: %w", r, err)
		}
	}

	// The body must end exactly where the trailer begins: one more
	// payload byte means trailing garbage. Reading it also drives the
	// trailerReader to the underlying EOF, finalizing the withheld
	// trailer bytes.
	if _, err := br.ReadByte(); err == nil {
		return nil, 0, errors.New("store: trailing data after entry")
	} else if err != io.EOF {
		return nil, 0, fmt.Errorf("store: draining entry: %w", err)
	}
	got, err := tr.Trailer()
	if err != nil {
		return nil, 0, err
	}
	if !bytes.Equal(h.Sum(nil), got) {
		return nil, 0, errors.New("store: checksum mismatch")
	}
	return e, cr.n, nil
}

// trailerReader exposes all but the final sha256.Size bytes of its
// underlying reader as the payload stream. The withheld suffix becomes
// available from Trailer once Read has returned io.EOF. A source
// shorter than the trailer fails the very first Read.
type trailerReader struct {
	r    io.Reader
	tail []byte
	buf  []byte
	eof  bool
}

func newTrailerReader(r io.Reader) *trailerReader {
	return &trailerReader{r: r, buf: make([]byte, 32*1024)}
}

func (t *trailerReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if len(t.tail) > sha256.Size {
			n := len(t.tail) - sha256.Size
			if n > len(p) {
				n = len(p)
			}
			copy(p, t.tail[:n])
			t.tail = append(t.tail[:0], t.tail[n:]...)
			return n, nil
		}
		if t.eof {
			if len(t.tail) < sha256.Size {
				return 0, fmt.Errorf("store: entry shorter than its checksum trailer: %w", io.ErrUnexpectedEOF)
			}
			return 0, io.EOF
		}
		n, err := t.r.Read(t.buf)
		if n > 0 {
			t.tail = append(t.tail, t.buf[:n]...)
		}
		if err == io.EOF {
			t.eof = true
		} else if err != nil {
			return 0, err
		}
	}
}

// Trailer returns the withheld checksum suffix; valid only after the
// payload stream has been fully drained to io.EOF.
func (t *trailerReader) Trailer() ([]byte, error) {
	if !t.eof || len(t.tail) != sha256.Size {
		return nil, errors.New("store: trailer unavailable before EOF")
	}
	return t.tail, nil
}

// --- section codecs ---

func encodeProfile(bw *bufio.Writer, p *cache.Profile) {
	for _, pc := range p.SortedPCs() {
		s := p.PCs[pc]
		putUvarint(bw, uint64(pc))
		b := byte(0)
		if s.IsStore {
			b = 1
		}
		bw.WriteByte(b)
		putUvarint(bw, uint64(s.Insts))
		putUvarint(bw, uint64(s.Reqs))
		putUvarint(bw, uint64(s.L1HitInsts))
		putUvarint(bw, uint64(s.L2HitInsts))
		putUvarint(bw, uint64(s.L2MissInsts))
		putUvarint(bw, uint64(s.L1HitReqs))
		putUvarint(bw, uint64(s.L2HitReqs))
		putUvarint(bw, uint64(s.L2MissReqs))
	}
}

func decodeProfile(br *bufio.Reader, cfg config.Config, numPCs int) (*cache.Profile, error) {
	p := &cache.Profile{Cfg: cfg, PCs: make(map[int]*cache.PCStats, numPCs)}
	for i := 0; i < numPCs; i++ {
		pc, err := getUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: profile pc: %w", err)
		}
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("store: profile flags: %w", err)
		}
		s := &cache.PCStats{IsStore: b == 1}
		for _, dst := range []*int64{&s.Insts, &s.Reqs, &s.L1HitInsts, &s.L2HitInsts,
			&s.L2MissInsts, &s.L1HitReqs, &s.L2HitReqs, &s.L2MissReqs} {
			v, err := getUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("store: profile stats: %w", err)
			}
			*dst = int64(v)
		}
		if _, dup := p.PCs[int(pc)]; dup {
			return nil, fmt.Errorf("store: duplicate profile pc %d", pc)
		}
		p.PCs[int(pc)] = s
	}
	return p, nil
}

func encodeTable(bw *bufio.Writer, t *interval.PCTable) {
	for _, col := range [][]float64{t.Latency, t.L1MissRate, t.L2MissRate, t.DistL1, t.DistL2, t.DistDRAM} {
		for _, v := range col {
			putFloat(bw, v)
		}
	}
	putFloat(bw, t.MergeWindow)
}

func decodeTable(br *bufio.Reader, n int) (*interval.PCTable, error) {
	t := &interval.PCTable{}
	for _, col := range []*[]float64{&t.Latency, &t.L1MissRate, &t.L2MissRate, &t.DistL1, &t.DistL2, &t.DistDRAM} {
		*col = make([]float64, n)
		for i := range *col {
			v, err := getFloat(br)
			if err != nil {
				return nil, fmt.Errorf("store: pc table: %w", err)
			}
			(*col)[i] = v
		}
	}
	var err error
	if t.MergeWindow, err = getFloat(br); err != nil {
		return nil, fmt.Errorf("store: merge window: %w", err)
	}
	return t, nil
}

func encodeWarpProfile(bw *bufio.Writer, p *interval.Profile) {
	putUvarint(bw, uint64(p.Insts))
	putFloat(bw, p.Stall)
	putFloat(bw, p.IssueRate)
	putUvarint(bw, uint64(len(p.Intervals)))
	for i := range p.Intervals {
		iv := &p.Intervals[i]
		putUvarint(bw, uint64(iv.Insts))
		putFloat(bw, iv.StallCycles)
		putUvarint(bw, uint64(iv.MemInsts))
		putFloat(bw, iv.MSHRReqs)
		putFloat(bw, iv.DRAMReqs)
		putFloat(bw, iv.MSHRLoadInsts)
		putFloat(bw, iv.DRAMLoadInsts)
		putUvarint(bw, uint64(iv.SFUInsts))
		putVarint(bw, int64(iv.CausePC))
		bw.WriteByte(byte(iv.CauseClass))
	}
}

func decodeWarpProfile(br *bufio.Reader) (*interval.Profile, error) {
	p := &interval.Profile{}
	insts, err := getUvarint(br)
	if err != nil {
		return nil, err
	}
	p.Insts = int(insts)
	if p.Stall, err = getFloat(br); err != nil {
		return nil, err
	}
	if p.IssueRate, err = getFloat(br); err != nil {
		return nil, err
	}
	n, err := getUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxSectionItems {
		return nil, fmt.Errorf("interval count %d too large", n)
	}
	p.Intervals = make([]interval.Interval, n)
	for i := range p.Intervals {
		iv := &p.Intervals[i]
		var u uint64
		if u, err = getUvarint(br); err != nil {
			return nil, err
		}
		iv.Insts = int(u)
		if iv.StallCycles, err = getFloat(br); err != nil {
			return nil, err
		}
		if u, err = getUvarint(br); err != nil {
			return nil, err
		}
		iv.MemInsts = int(u)
		if iv.MSHRReqs, err = getFloat(br); err != nil {
			return nil, err
		}
		if iv.DRAMReqs, err = getFloat(br); err != nil {
			return nil, err
		}
		if iv.MSHRLoadInsts, err = getFloat(br); err != nil {
			return nil, err
		}
		if iv.DRAMLoadInsts, err = getFloat(br); err != nil {
			return nil, err
		}
		if u, err = getUvarint(br); err != nil {
			return nil, err
		}
		iv.SFUInsts = int(u)
		var v int64
		if v, err = getVarint(br); err != nil {
			return nil, err
		}
		iv.CausePC = int(v)
		cls, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		iv.CauseClass = isa.Class(cls)
	}
	return p, nil
}

// --- primitives ---

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

func putVarint(bw *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	bw.Write(buf[:n])
}

func putFloat(bw *bufio.Writer, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	bw.Write(buf[:])
}

func getUvarint(br *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(br)
}

func getVarint(br *bufio.Reader) (int64, error) {
	return binary.ReadVarint(br)
}

func getFloat(br *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// countingWriter counts bytes for the store's byte-total metrics.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader counts bytes consumed from the underlying file.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
