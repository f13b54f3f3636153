package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"gpumech/internal/isa"
)

// Serialization lets traces be collected once and reused across tool
// invocations (the paper's per-input profiling cost is paid offline).
//
// The on-disk format (v2) is gzip-compressed: the magic "GMC2", a
// length-prefixed gob blob with the launch metadata (colHeader), then one
// section per warp holding the delta/varint column streams of a ColWarp.
// The reader rejects any stream that does not start with the magic
// (including the retired v1 gob format) and trailing bytes after a
// well-formed stream.

const colFormatVersion = 2

var colMagic = [4]byte{'G', 'M', 'C', '2'}

// colHeader is the metadata blob of a v2 columnar trace file.
type colHeader struct {
	Version       int
	Name          string
	Blocks        int
	WarpsPerBlock int
	LineBytes     int
	Prog          *isa.Program
}

// Encode serializes the kernel trace to w in the v2 format, writing each
// warp's column streams as they are.
func (k *Kernel) Encode(w io.Writer) error {
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	if err := encodeColumnar(bw, k); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing stream: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: closing stream: %w", err)
	}
	return nil
}

func encodeColumnar(bw *bufio.Writer, k *Kernel) error {
	if _, err := bw.Write(colMagic[:]); err != nil {
		return fmt.Errorf("trace: writing magic: %w", err)
	}
	var hdr bytes.Buffer
	h := colHeader{
		Version:       colFormatVersion,
		Name:          k.Name,
		Blocks:        k.Blocks,
		WarpsPerBlock: k.WarpsPerBlock,
		LineBytes:     k.LineBytes,
		Prog:          k.Prog,
	}
	if err := gob.NewEncoder(&hdr).Encode(h); err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	if err := writeUvarint(bw, uint64(hdr.Len())); err != nil {
		return err
	}
	if _, err := bw.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for i, w := range k.Warps {
		if err := writeColWarp(bw, &w.ColWarp); err != nil {
			return fmt.Errorf("trace: kernel %q warp %d: %w", k.Name, i, err)
		}
	}
	return nil
}

func writeColWarp(bw *bufio.Writer, c *ColWarp) error {
	counts := []uint64{
		uint64(c.n), uint64(c.memInsts), uint64(c.memReqs),
		uint64(len(c.pc)), uint64(len(c.srcs)), uint64(len(c.mask)),
		uint64(len(c.nlines)), uint64(len(c.lines)),
	}
	for _, v := range counts {
		if err := writeUvarint(bw, v); err != nil {
			return err
		}
	}
	for _, col := range [][]byte{c.pc, c.op, c.mem, c.nsrc, c.dst, c.srcs, c.mask, c.nlines, c.lines} {
		if _, err := bw.Write(col); err != nil {
			return fmt.Errorf("writing column: %w", err)
		}
	}
	return nil
}

func writeUvarint(bw *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if _, err := bw.Write(buf[:n]); err != nil {
		return fmt.Errorf("trace: writing varint: %w", err)
	}
	return nil
}

// ReadKernel deserializes a kernel trace written by Encode and validates
// it before returning. The warps keep their column streams; consumers
// iterate them through WarpTrace.Cursor with O(window) memory. A stream
// that is not v2 and trailing bytes after the kernel are errors.
func ReadKernel(r io.Reader) (*Kernel, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: opening stream: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)
	k, err := readColumnar(br)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: trailing data after kernel %q", k.Name)
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("trace: loaded kernel invalid: %w", err)
	}
	return k, nil
}

// maxHeaderBytes bounds the gob metadata blob of a v2 file; programs are
// a few KB, so anything near this is a corrupt or hostile length prefix.
const maxHeaderBytes = 64 << 20

func readColumnar(br *bufio.Reader) (*Kernel, error) {
	var magic [len(colMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != colMagic {
		return nil, fmt.Errorf("trace: not a v2 trace (magic %q, want %q)", magic[:], colMagic[:])
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading header length: %w", err)
	}
	if hlen > maxHeaderBytes {
		return nil, fmt.Errorf("trace: header length %d exceeds limit", hlen)
	}
	hbuf := make([]byte, hlen)
	if _, err := io.ReadFull(br, hbuf); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	var h colHeader
	if err := gob.NewDecoder(bytes.NewReader(hbuf)).Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: decoding header: %w", err)
	}
	if h.Version != colFormatVersion {
		return nil, fmt.Errorf("trace: unsupported columnar format version %d (want %d)", h.Version, colFormatVersion)
	}
	if h.Blocks < 0 || h.WarpsPerBlock < 0 || h.Blocks*h.WarpsPerBlock < 0 {
		return nil, fmt.Errorf("trace: kernel %q: invalid launch geometry %dx%d", h.Name, h.Blocks, h.WarpsPerBlock)
	}
	k := &Kernel{
		Name:          h.Name,
		Prog:          h.Prog,
		Blocks:        h.Blocks,
		WarpsPerBlock: h.WarpsPerBlock,
		LineBytes:     h.LineBytes,
	}
	nWarps := h.Blocks * h.WarpsPerBlock
	for i := 0; i < nWarps; i++ {
		w := &WarpTrace{BlockID: i / h.WarpsPerBlock, WarpID: i % h.WarpsPerBlock}
		if err := readColWarp(br, &w.ColWarp); err != nil {
			return nil, fmt.Errorf("trace: kernel %q warp %d: %w", h.Name, i, err)
		}
		k.Warps = append(k.Warps, w)
	}
	return k, nil
}

// readColWarp reads one warp section into c.
func readColWarp(br *bufio.Reader, c *ColWarp) error {
	var counts [8]uint64
	for i := range counts {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("reading warp counts: %w", err)
		}
		if v > math.MaxInt64/2 {
			return fmt.Errorf("warp count %d out of range", v)
		}
		counts[i] = v
	}
	n := int(counts[0])
	*c = ColWarp{n: n, memInsts: int(counts[1]), memReqs: int(counts[2])}
	lens := []struct {
		name string
		n    int
		dst  *[]byte
	}{
		{"pc", int(counts[3]), &c.pc},
		{"op", n, &c.op},
		{"mem", n, &c.mem},
		{"nsrc", n, &c.nsrc},
		{"dst", n, &c.dst},
		{"srcs", int(counts[4]), &c.srcs},
		{"mask", int(counts[5]), &c.mask},
		{"nlines", int(counts[6]), &c.nlines},
		{"lines", int(counts[7]), &c.lines},
	}
	for _, l := range lens {
		buf, err := readBytes(br, l.n)
		if err != nil {
			return fmt.Errorf("reading %s column: %w", l.name, err)
		}
		*l.dst = buf
	}
	// Cheap structural bounds before anything trusts the summaries: every
	// record costs at least one pc byte, every memory instruction at least
	// one nlines byte, every line at least one lines byte. (Validate later
	// confirms the summaries exactly by streaming the records.)
	if c.n > len(c.pc) {
		return fmt.Errorf("record count %d exceeds pc column bytes %d", c.n, len(c.pc))
	}
	if c.memInsts > len(c.nlines) {
		return fmt.Errorf("memory instruction count %d exceeds nlines column bytes %d", c.memInsts, len(c.nlines))
	}
	if c.memReqs > len(c.lines) {
		return fmt.Errorf("memory request count %d exceeds lines column bytes %d", c.memReqs, len(c.lines))
	}
	return nil
}

// readBytes reads exactly n bytes, growing the buffer incrementally so a
// hostile length prefix cannot force a huge up-front allocation: the read
// fails at the stream's true end before memory does. An empty stream is
// nil, as ColBuilder leaves a stream it never wrote.
func readBytes(br *bufio.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	if n == 0 {
		return nil, nil
	}
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var buf []byte
	for len(buf) < n {
		c := n - len(buf)
		if c > chunk {
			c = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Save writes the trace to a file in the v2 format. The write is atomic:
// the trace is staged to a temporary file in the same directory and
// renamed into place only after every flush and close succeeded, so a
// failed save never leaves a truncated trace at path.
func (k *Kernel) Save(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = k.Encode(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Load reads a trace from a file written by Save (see ReadKernel).
func Load(path string) (*Kernel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadKernel(bufio.NewReader(f))
}
