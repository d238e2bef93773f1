package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"repro/internal/isa"
)

// Writer streams a trace to an underlying writer: a fixed header first
// (WriteHeader), then one record per instruction (WriteInst). It
// buffers at most one record block and never holds more; Close flushes
// (and, for v2, writes the block index and trailer) and closes whatever
// Create opened.
//
// A Writer emits either format version:
//
//   - v2 (Create, NewWriterV2): records are gathered into fixed-size
//     blocks, each compressed as an independent flate frame with its
//     own delta-decode state, and Close appends the block index and
//     trailer that make the file seekable.
//   - v1 (CreateV1, NewWriter): the legacy single sequential record
//     stream, optionally inside a whole-file gzip envelope. Nothing
//     public records v1 any more; these constructors remain for tests
//     and benchmarks that need a v1 file to read or convert.
//
// Both versions encode every record with the same appendRecord.
type Writer struct {
	file *os.File
	gz   *gzip.Writer
	bw   *bufio.Writer
	cw   *countWriter // v2: beneath bw, tracks flushed file offsets

	version    int
	headerDone bool
	closed     bool
	codec
	segments int

	// v2 block state: the current block's encoded records, the counts
	// at which it began, the reusable compressor, and the accumulated
	// index.
	blkRaw     []byte
	blkStart   tally
	comp       bytes.Buffer
	fw         *flate.Writer
	index      []blockInfo
	rawBytes   uint64
	compBytes  uint64
	indexBytes int
	v2err      error

	buf [maxRecordBytes]byte
}

// Create opens path for writing and returns a v2 Writer over it. The
// v2 container is block-compressed regardless of the file extension.
// Call WriteHeader before the first WriteInst, and Close when done.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w := NewWriterV2(f)
	w.file = f
	return w, nil
}

// CreateV1 opens path for writing in the legacy v1 format. A ".gz"
// extension selects the whole-file gzip envelope; any other extension
// writes the raw v1 stream. Readers accept both versions forever.
func CreateV1(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w := NewWriter(f, strings.HasSuffix(path, ".gz"))
	w.file = f
	return w, nil
}

// NewWriter returns a v1 Writer over an arbitrary io.Writer, with or
// without the gzip envelope. The caller owns the underlying writer;
// Close flushes the envelope but does not close it.
func NewWriter(out io.Writer, compress bool) *Writer {
	w := &Writer{version: Version1}
	if compress {
		w.gz = gzip.NewWriter(out)
		w.bw = bufio.NewWriterSize(w.gz, 1<<16)
	} else {
		w.bw = bufio.NewWriterSize(out, 1<<16)
	}
	return w
}

// NewWriterV2 returns a v2 Writer over an arbitrary io.Writer. The
// caller owns the underlying writer; Close appends the index and
// trailer and flushes, but does not close it.
func NewWriterV2(out io.Writer) *Writer {
	cw := &countWriter{w: out}
	return &Writer{version: Version2, cw: cw, bw: bufio.NewWriterSize(cw, 1<<16)}
}

// WriteHeader writes the magic, version, and metadata. It must be
// called exactly once, before any WriteInst.
func (w *Writer) WriteHeader(h Header) error {
	if w.headerDone {
		return fmt.Errorf("trace: header already written")
	}
	if len(h.Workload) > maxNameLen {
		return fmt.Errorf("trace: workload name %d bytes exceeds %d", len(h.Workload), maxNameLen)
	}
	if len(h.Layout) > maxSegments {
		return fmt.Errorf("trace: layout %d segments exceeds %d", len(h.Layout), maxSegments)
	}
	if _, err := w.bw.WriteString(Magic); err != nil {
		return err
	}
	if err := w.bw.WriteByte(byte(w.version)); err != nil {
		return err
	}
	if err := w.bw.WriteByte(VersionMinor); err != nil {
		return err
	}
	// Flags: reserved, zero in both versions.
	if _, err := w.bw.Write([]byte{0, 0}); err != nil {
		return err
	}
	w.uvarint(uint64(len(h.Workload)))
	w.bw.WriteString(h.Workload)
	w.uvarint(uint64(h.Class))
	w.uvarint(h.Footprint)
	w.uvarint(h.Seed)
	w.uvarint(uint64(len(h.Layout)))
	for _, seg := range h.Layout {
		w.uvarint(uint64(seg.Start))
		w.uvarint(seg.Length)
		w.bw.WriteByte(seg.flagBits())
		w.uvarint(seg.FileID)
	}
	w.headerDone = true
	w.segments = len(h.Layout)
	return w.err()
}

// WriteInst appends one instruction record, encoded by appendRecord:
// straight through to the stream for v1, into the current block for
// v2, which is sealed when it reaches blockRecords records. An op the
// control byte cannot carry (any range op) is an error, and nothing
// is written.
func (w *Writer) WriteInst(in isa.Inst) error {
	if !w.headerDone {
		return fmt.Errorf("trace: WriteInst before WriteHeader")
	}
	if uint8(in.Op) > ctrlOpMask {
		return fmt.Errorf("trace: %v records cannot be stored", in.Op)
	}
	if w.version == Version1 {
		_, err := w.bw.Write(w.appendRecord(w.buf[:0], in))
		return err
	}
	if w.v2err != nil {
		return w.v2err
	}
	w.blkRaw = w.appendRecord(w.blkRaw, in)
	if w.records-w.blkStart.records >= blockRecords {
		return w.flushBlock()
	}
	return nil
}

// flushBlock seals the current block: compress it as an independent
// flate frame, write the block header, payload and CRC, record the
// index entry, and reset the per-block delta state so the next block
// decodes from scratch.
func (w *Writer) flushBlock() error {
	blk := w.tally.since(w.blkStart)
	if blk.records == 0 {
		return nil
	}
	// The index needs the block's exact file offset; flushing the
	// buffered writer makes the byte count under it current.
	if err := w.bw.Flush(); err != nil {
		w.v2err = err
		return err
	}
	off := w.cw.n
	w.comp.Reset()
	if w.fw == nil {
		fw, err := flate.NewWriter(&w.comp, flate.DefaultCompression)
		if err != nil {
			w.v2err = err
			return err
		}
		w.fw = fw
	} else {
		w.fw.Reset(&w.comp)
	}
	if _, err := w.fw.Write(w.blkRaw); err != nil {
		w.v2err = err
		return err
	}
	if err := w.fw.Close(); err != nil {
		w.v2err = err
		return err
	}
	crc := crc32.ChecksumIEEE(w.comp.Bytes())
	w.uvarint(blk.records)
	w.uvarint(blk.insts)
	w.uvarint(blk.memOps)
	w.uvarint(uint64(len(w.blkRaw)))
	w.uvarint(uint64(w.comp.Len()))
	w.bw.Write(w.comp.Bytes())
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)
	w.bw.Write(crcb[:])
	w.index = append(w.index, blockInfo{
		Off:     off,
		Records: blk.records,
		Insts:   blk.insts,
		MemOps:  blk.memOps,
		RawLen:  uint64(len(w.blkRaw)),
		CompLen: uint64(w.comp.Len()),
		CRC:     crc,
	})
	w.rawBytes += uint64(len(w.blkRaw))
	w.compBytes += uint64(w.comp.Len())
	w.blkRaw = w.blkRaw[:0]
	w.blkStart = w.tally
	w.prevPC, w.prevAddr = 0, 0
	return w.err()
}

// finishV2 seals the last block and appends the sentinel, the block
// index, and the trailer.
func (w *Writer) finishV2() error {
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.uvarint(0) // sentinel: a zero record count ends the block section
	if err := w.bw.Flush(); err != nil {
		return err
	}
	indexOff := w.cw.n
	idx := appendIndex(nil, w.index)
	w.indexBytes = len(idx)
	w.bw.Write(idx)
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], indexOff)
	binary.LittleEndian.PutUint32(tr[8:12], uint32(len(idx)))
	binary.LittleEndian.PutUint32(tr[12:16], crc32.ChecksumIEEE(idx))
	copy(tr[16:20], TrailerMagic)
	w.bw.Write(tr[:])
	return w.err()
}

// Records returns the number of records written so far.
func (w *Writer) Records() uint64 { return w.records }

// Insts returns the dynamic instruction count written so far (batched
// ops at their batch size, delays excluded).
func (w *Writer) Insts() uint64 { return w.insts }

// MemOps returns the memory-operand instruction count written so far.
func (w *Writer) MemOps() uint64 { return w.memOps }

// Segments returns the number of layout segments in the written header.
func (w *Writer) Segments() int { return w.segments }

// Version returns the format version the Writer emits (Version1 or
// Version2).
func (w *Writer) Version() int { return w.version }

// Blocks returns the number of sealed v2 blocks; the count is complete
// only after Close.
func (w *Writer) Blocks() int { return len(w.index) }

// IndexBytes returns the serialised v2 index size; valid after Close.
func (w *Writer) IndexBytes() int { return w.indexBytes }

// RawBytes returns the total uncompressed block payload written; valid
// after Close.
func (w *Writer) RawBytes() uint64 { return w.rawBytes }

// CompBytes returns the total compressed block payload written; valid
// after Close.
func (w *Writer) CompBytes() uint64 { return w.compBytes }

// Close flushes the stream — sealing the final block and writing the
// index and trailer for v2, finishing the gzip envelope for v1 — and
// closes the file if the Writer came from Create/CreateV1. Close is
// idempotent; only the first call writes anything.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.version == Version2 && w.headerDone {
		err = w.finishV2()
	}
	if e := w.bw.Flush(); err == nil {
		err = e
	}
	if w.gz != nil {
		if e := w.gz.Close(); err == nil {
			err = e
		}
	}
	if w.file != nil {
		if e := w.file.Close(); err == nil {
			err = e
		}
	}
	return err
}

func (w *Writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.bw.Write(w.buf[:n])
}

// err surfaces the bufio writer's sticky error, so callers see write
// failures at the call that caused them rather than only at Close.
func (w *Writer) err() error {
	_, err := w.bw.Write(nil)
	return err
}

// countWriter counts bytes written through it; the v2 writer keeps it
// beneath the buffered writer so flushing yields exact file offsets
// for the block index.
type countWriter struct {
	w io.Writer
	n uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}
