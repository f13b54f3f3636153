package store

// The on-disk entry format, version 3:
//
//	magic   "GMPF" (4 bytes)
//	version uint16 little-endian
//	header  the key, the session metadata, the profile's simulation
//	        config, the Clustering, Max and Min representatives and the
//	        section counts, in a fixed field order
//	body    the cache profile, the PC table, and the interval profiles of
//	        the distinct representatives in ascending warp order
//	trailer SHA-256 (32 bytes) of every preceding byte, magic included
//
// Header and body share one encoding: signed fields as zigzag varints,
// counts and per-PC statistics as uvarints, every float (cycle
// quantities and the config's clock and bandwidth) as raw IEEE-754 bits,
// so a decoded profile is bit-identical to the one encoded — the
// foundation of the store's byte-identical-responses guarantee. The
// per-PC map is sorted by PC, so the bytes of an entry are a
// deterministic function of its content; no other warp's profile is
// stored.
//
// The version is part of the hashed key (Key.canonical), so a reader
// never opens a file written in another version: such a directory reads
// as all misses and is rebuilt entry by entry.
//
// Get reads a file whole into one buffer and checks the trailer before
// parsing a byte. The decoder then accepts exactly what the encoder
// writes: a varint in its shortest form, a flag of 0 or 1, PCs strictly
// ascending, no byte after the body. Every count is bounded by the bytes
// left before anything is allocated for it. Any defect is an error,
// which Store.Get converts into a miss.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"gpumech/internal/cache"
	"gpumech/internal/config"
	"gpumech/internal/core/interval"
	"gpumech/internal/isa"
)

const formatVersion = 3

var magic = [4]byte{'G', 'M', 'P', 'F'}

const (
	// maxEntryBytes caps the size of a file Get reads: a larger one is a
	// miss and is never read whole.
	maxEntryBytes = 256 << 20

	// maxWarps caps NumWarps, the one count no bytes back: only the
	// representatives' profiles are stored, but Get allocates a slot for
	// every warp. Put refuses a larger entry.
	maxWarps = 1 << 20

	// The fewest bytes one item of a section can encode to.
	pcStatBytes   = 10      // uvarint PC, flag byte, eight uvarints
	tableRowBytes = 6 * 8   // one float in each of the six columns
	intervalBytes = 5*8 + 5 // five floats, three uvarints, a varint, a class byte
)

// entryHeader is the metadata at the head of an entry.
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

// encodeEntry returns the encoding of the slim entry e (see Entry.Slim).
func encodeEntry(e *Entry) ([]byte, error) {
	if e.Profile == nil || e.Table == nil {
		return nil, errors.New("store: entry missing profile or table")
	}
	if len(e.WarpProfiles) > maxWarps {
		return nil, fmt.Errorf("store: %d warps exceed the format's %d", len(e.WarpProfiles), maxWarps)
	}
	var body []*interval.Profile
	for _, r := range e.reps() {
		body = append(body, e.WarpProfiles[r])
	}
	return frameEntry(&entryHeader{
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
	}, e.Profile, e.Table, body), nil
}

// frameEntry encodes one entry: magic, version, hdr, the profile and
// table sections, the given warp profiles, and the checksum trailer.
func frameEntry(hdr *entryHeader, prof *cache.Profile, table *interval.PCTable, warps []*interval.Profile) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, formatVersion)
	b = appendHeader(b, hdr)
	b = appendProfile(b, prof)
	b = appendTable(b, table)
	for _, p := range warps {
		b = appendWarpProfile(b, p)
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// decodeEntry decodes one whole entry file. It checks the trailer
// before parsing any byte and rejects trailing data.
func decodeEntry(b []byte) (*Entry, error) {
	const frame = len(magic) + 2
	if len(b) < frame+sha256.Size {
		return nil, fmt.Errorf("store: %d-byte entry is shorter than its frame", len(b))
	}
	payload := b[:len(b)-sha256.Size]
	if sha256.Sum256(payload) != [sha256.Size]byte(b[len(payload):]) {
		return nil, errors.New("store: checksum mismatch")
	}
	if [len(magic)]byte(payload) != magic {
		return nil, fmt.Errorf("store: bad magic %q", payload[:len(magic)])
	}
	if v := binary.LittleEndian.Uint16(payload[len(magic):]); v != formatVersion {
		return nil, fmt.Errorf("store: unsupported version %d (want %d)", v, formatVersion)
	}

	c := &cursor{b: payload[frame:]}
	var hdr entryHeader
	c.header(&hdr)
	if c.err != nil {
		return nil, c.err
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
			return nil, fmt.Errorf("store: representative %d out of range (%d warps)", r, hdr.NumWarps)
		}
	}
	e.Profile = c.profile(hdr.Cfg, hdr.NumPCs)
	e.Table = c.table(hdr.TableLen)
	profs := make([]interval.Profile, len(reps))
	for i := range profs {
		c.warpProfile(&profs[i])
	}
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("store: %d bytes of trailing data after the body", len(c.b))
	}
	e.WarpProfiles = make([]*interval.Profile, hdr.NumWarps)
	for i, r := range reps {
		e.WarpProfiles[r] = &profs[i]
	}
	return e, nil
}

// --- header ---

func appendHeader(b []byte, h *entryHeader) []byte {
	k, p, c := &h.Key, &h.Key.Profile, &h.Cfg
	b = binary.AppendUvarint(b, uint64(len(k.Kernel)))
	b = append(b, k.Kernel...)
	b = appendInts(b, k.Blocks)
	b = binary.AppendVarint(b, k.Seed)
	b = appendInts(b, k.Line,
		p.Cores, p.L1SizeBytes, p.L1LineBytes, p.L1Assoc, p.L1Latency,
		p.L2SizeBytes, p.L2LineBytes, p.L2Assoc, p.L2Latency, p.DRAMLatency,
		k.ALULatency, k.FPLatency, k.SFULatency, k.SMemLatency, k.IssueWidth,
		h.Warps)
	b = binary.AppendVarint(b, h.TotalInsts)
	b = appendInts(b, c.Cores, c.SIMTWidth, c.WarpSize, c.MaxThreadsPerCore,
		c.WarpsPerCore, c.IssueWidth)
	b = appendFloat(b, c.ClockGHz)
	b = appendInts(b, c.ALULatency, c.FPLatency, c.SFULatency, c.SMemLatency,
		c.L1SizeBytes, c.L1LineBytes, c.L1Assoc, c.L1Latency,
		c.L2SizeBytes, c.L2LineBytes, c.L2Assoc, c.L2Latency, c.MSHREntries)
	b = appendFloat(b, c.DRAMBandwidthGBps)
	b = appendInts(b, c.DRAMLatency, c.DRAMQueueDepth, c.SFUPerCore,
		h.Rep, h.MaxRep, h.MinRep)
	for _, n := range []int{h.NumPCs, h.TableLen, h.NumWarps} {
		b = binary.AppendUvarint(b, uint64(n))
	}
	return b
}

// header decodes what appendHeader writes, field for field.
func (c *cursor) header(h *entryHeader) {
	k, p, cf := &h.Key, &h.Key.Profile, &h.Cfg
	k.Kernel = string(c.bytes(c.count(1)))
	c.ints(&k.Blocks)
	k.Seed = c.varint()
	c.ints(&k.Line,
		&p.Cores, &p.L1SizeBytes, &p.L1LineBytes, &p.L1Assoc, &p.L1Latency,
		&p.L2SizeBytes, &p.L2LineBytes, &p.L2Assoc, &p.L2Latency, &p.DRAMLatency,
		&k.ALULatency, &k.FPLatency, &k.SFULatency, &k.SMemLatency, &k.IssueWidth,
		&h.Warps)
	h.TotalInsts = c.varint()
	c.ints(&cf.Cores, &cf.SIMTWidth, &cf.WarpSize, &cf.MaxThreadsPerCore,
		&cf.WarpsPerCore, &cf.IssueWidth)
	cf.ClockGHz = c.float()
	c.ints(&cf.ALULatency, &cf.FPLatency, &cf.SFULatency, &cf.SMemLatency,
		&cf.L1SizeBytes, &cf.L1LineBytes, &cf.L1Assoc, &cf.L1Latency,
		&cf.L2SizeBytes, &cf.L2LineBytes, &cf.L2Assoc, &cf.L2Latency, &cf.MSHREntries)
	cf.DRAMBandwidthGBps = c.float()
	c.ints(&cf.DRAMLatency, &cf.DRAMQueueDepth, &cf.SFUPerCore,
		&h.Rep, &h.MaxRep, &h.MinRep)
	h.NumPCs = c.count(pcStatBytes)
	h.TableLen = c.count(tableRowBytes)
	if n := c.uvarint(); n > maxWarps {
		c.fail("%d warps exceed the format's %d", n, maxWarps)
	} else {
		h.NumWarps = int(n)
	}
}

// --- body sections ---

func appendProfile(b []byte, p *cache.Profile) []byte {
	for _, pc := range p.SortedPCs() {
		s := p.PCs[pc]
		b = binary.AppendUvarint(b, uint64(pc))
		flag := byte(0)
		if s.IsStore {
			flag = 1
		}
		b = append(b, flag)
		for _, v := range [...]int64{s.Insts, s.Reqs, s.L1HitInsts, s.L2HitInsts,
			s.L2MissInsts, s.L1HitReqs, s.L2HitReqs, s.L2MissReqs} {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

func (c *cursor) profile(cfg config.Config, n int) *cache.Profile {
	p := &cache.Profile{Cfg: cfg, PCs: make(map[int]*cache.PCStats, n)}
	stats := make([]cache.PCStats, n)
	last := 0
	for i := range stats {
		pc := int(c.uvarint())
		if i > 0 && pc <= last {
			c.fail("profile PCs not strictly ascending at %d", pc)
		}
		last = pc
		s := &stats[i]
		switch c.byte() {
		case 0:
		case 1:
			s.IsStore = true
		default:
			c.fail("bad store flag")
		}
		for _, dst := range [...]*int64{&s.Insts, &s.Reqs, &s.L1HitInsts, &s.L2HitInsts,
			&s.L2MissInsts, &s.L1HitReqs, &s.L2HitReqs, &s.L2MissReqs} {
			*dst = int64(c.uvarint())
		}
		if c.err != nil {
			return nil
		}
		p.PCs[pc] = s
	}
	return p
}

func appendTable(b []byte, t *interval.PCTable) []byte {
	for _, col := range [...][]float64{t.Latency, t.L1MissRate, t.L2MissRate, t.DistL1, t.DistL2, t.DistDRAM} {
		for _, v := range col {
			b = appendFloat(b, v)
		}
	}
	return appendFloat(b, t.MergeWindow)
}

func (c *cursor) table(n int) *interval.PCTable {
	all := make([]float64, 6*n)
	c.floats(all)
	t := &interval.PCTable{MergeWindow: c.float()}
	for i, col := range [...]*[]float64{&t.Latency, &t.L1MissRate, &t.L2MissRate, &t.DistL1, &t.DistL2, &t.DistDRAM} {
		*col = all[i*n : (i+1)*n : (i+1)*n]
	}
	return t
}

func appendWarpProfile(b []byte, p *interval.Profile) []byte {
	b = binary.AppendUvarint(b, uint64(p.Insts))
	b = appendFloat(b, p.Stall)
	b = appendFloat(b, p.IssueRate)
	b = binary.AppendUvarint(b, uint64(len(p.Intervals)))
	for i := range p.Intervals {
		iv := &p.Intervals[i]
		b = binary.AppendUvarint(b, uint64(iv.Insts))
		b = appendFloat(b, iv.StallCycles)
		b = binary.AppendUvarint(b, uint64(iv.MemInsts))
		b = appendFloat(b, iv.MSHRReqs)
		b = appendFloat(b, iv.DRAMReqs)
		b = appendFloat(b, iv.MSHRLoadInsts)
		b = appendFloat(b, iv.DRAMLoadInsts)
		b = binary.AppendUvarint(b, uint64(iv.SFUInsts))
		b = binary.AppendVarint(b, int64(iv.CausePC))
		b = append(b, byte(iv.CauseClass))
	}
	return b
}

func (c *cursor) warpProfile(p *interval.Profile) {
	p.Insts = int(c.uvarint())
	p.Stall = c.float()
	p.IssueRate = c.float()
	n := c.count(intervalBytes)
	if c.err != nil {
		return
	}
	p.Intervals = make([]interval.Interval, n)
	for i := range p.Intervals {
		iv := &p.Intervals[i]
		iv.Insts = int(c.uvarint())
		iv.StallCycles = c.float()
		iv.MemInsts = int(c.uvarint())
		iv.MSHRReqs = c.float()
		iv.DRAMReqs = c.float()
		iv.MSHRLoadInsts = c.float()
		iv.DRAMLoadInsts = c.float()
		iv.SFUInsts = int(c.uvarint())
		iv.CausePC = int(c.varint())
		iv.CauseClass = isa.Class(c.byte())
	}
}

// --- primitives ---

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// cursor decodes from a byte slice. The first failure is kept in err
// and empties the slice, so every later read fails too and returns a
// zero value; a decoder checks err once where it must stop.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("store: "+format, args...)
	}
	c.b = nil
}

// uvarint reads a uvarint in its shortest form: a longer one ends in a
// zero byte and would not re-encode to the same bytes.
func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || n > 1 && c.b[n-1] == 0 {
		c.fail("bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) varint() int64 {
	u := c.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (c *cursor) ints(dst ...*int) {
	for _, d := range dst {
		*d = int(c.varint())
	}
}

func (c *cursor) float() float64 {
	b := c.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// floats fills dst from consecutive raw floats.
func (c *cursor) floats(dst []float64) {
	src := c.bytes(8 * len(dst))
	if len(src) != 8*len(dst) {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func (c *cursor) byte() byte {
	b := c.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// bytes returns the next n bytes, or nil if fewer are left.
func (c *cursor) bytes(n int) []byte {
	if len(c.b) < n {
		c.fail("%d bytes short", n-len(c.b))
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// count reads a count of items that encode to at least itemBytes bytes
// each and rejects one the bytes left cannot hold.
func (c *cursor) count(itemBytes int) int {
	n := c.uvarint()
	if n > uint64(len(c.b)/itemBytes) {
		c.fail("count %d exceeds the %d bytes left", n, len(c.b))
		return 0
	}
	return int(n)
}
