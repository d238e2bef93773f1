package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Reader streams a trace from an underlying reader: the header is
// decoded eagerly by Open/NewReader (so a bad file fails fast, before a
// simulation starts), then Read yields one instruction per call until a
// clean io.EOF. Each Reader carries its own cursor and delta-decode
// state — concurrent replays of one file open one Reader each and never
// share anything.
//
// The Reader handles both format versions transparently: it sniffs the
// gzip envelope by magic bytes (never by file extension) and
// dispatches on the major version in the header. v2 blocks are decoded
// one at a time into a reusable buffer, so sequential reads of a v2
// file still hold only a block's worth of memory.
type Reader struct {
	file *os.File
	gz   *gzip.Reader
	br   *bufio.Reader

	hdr     Header
	version int
	codec

	// v2 sequential-decode state: the current block's compressed and
	// inflated payloads (reused across blocks), the cursor into the
	// inflated bytes, and the counts the stream reaches at the end of
	// the current block according to its header.
	comp      []byte
	raw       []byte
	rawPos    int
	blkEnd    tally
	blocks    uint64
	rawBytes  uint64
	compBytes uint64
	v2eof     bool
	fr        io.ReadCloser
	frSrc     bytes.Reader
}

// Open opens path and decodes its header. The gzip envelope and the
// format version are sniffed from the file's leading bytes; the file
// extension is never consulted, so a misnamed file fails loudly with
// ErrCorrupt instead of a confusing mid-stream error.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	r.file = f
	return r, nil
}

// NewReader wraps an arbitrary io.Reader and decodes the header,
// sniffing the gzip envelope and format version from the leading
// bytes. The caller owns the underlying reader; Close releases only
// what the Reader itself allocated.
func NewReader(in io.Reader) (*Reader, error) {
	r := &Reader{}
	br := bufio.NewReaderSize(in, 1<<16)
	lead, err := br.Peek(2)
	if err != nil {
		return nil, corruptf("short header: %v", eofErr(err))
	}
	if lead[0] == 0x1f && lead[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, corruptf("gzip envelope: %v", err)
		}
		r.gz = gz
		r.br = bufio.NewReaderSize(gz, 1<<16)
	} else {
		r.br = br
	}
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

// Header returns the decoded file header.
func (r *Reader) Header() Header { return r.hdr }

// Compressed reports whether the stream's record section is
// compressed: a gzip envelope around the whole file, or the
// always-block-compressed v2 container.
func (r *Reader) Compressed() bool { return r.gz != nil || r.version == Version2 }

// Version returns the file's major format version (Version1 or
// Version2).
func (r *Reader) Version() int { return r.version }

func (r *Reader) readHeader() error {
	var fixed [8]byte
	if _, err := io.ReadFull(r.br, fixed[:]); err != nil {
		return corruptf("short header: %v", err)
	}
	if string(fixed[:4]) != Magic {
		return corruptf("bad magic %q (want %q)", fixed[:4], Magic)
	}
	switch fixed[4] {
	case Version1, Version2:
		r.version = int(fixed[4])
	default:
		return corruptf("unsupported major version %d (reader knows %d and %d)",
			fixed[4], Version1, Version2)
	}
	// fixed[5] is the minor version: additive, ignored on read.
	if flags := binary.LittleEndian.Uint16(fixed[6:8]); flags != 0 {
		return corruptf("unknown flags %#x", flags)
	}

	nameLen, err := r.uvarint("name length")
	if err != nil {
		return err
	}
	if nameLen > maxNameLen {
		return corruptf("name length %d exceeds %d", nameLen, maxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r.br, name); err != nil {
		return corruptf("truncated name: %v", err)
	}
	r.hdr.Workload = string(name)

	class, err := r.uvarint("class")
	if err != nil {
		return err
	}
	r.hdr.Class = workloads.Class(class)
	if r.hdr.Footprint, err = r.uvarint("footprint"); err != nil {
		return err
	}
	if r.hdr.Seed, err = r.uvarint("seed"); err != nil {
		return err
	}
	nsegs, err := r.uvarint("segment count")
	if err != nil {
		return err
	}
	if nsegs > maxSegments {
		return corruptf("segment count %d exceeds %d", nsegs, maxSegments)
	}
	r.hdr.Layout = make([]Segment, 0, nsegs)
	for i := uint64(0); i < nsegs; i++ {
		start, err := r.uvarint("segment start")
		if err != nil {
			return err
		}
		length, err := r.uvarint("segment length")
		if err != nil {
			return err
		}
		bits, err := r.br.ReadByte()
		if err != nil {
			return corruptf("truncated segment flags: %v", err)
		}
		seg := segmentFromBits(bits)
		seg.Start, seg.Length = mem.VAddr(start), length
		if seg.FileID, err = r.uvarint("segment file id"); err != nil {
			return err
		}
		r.hdr.Layout = append(r.hdr.Layout, seg)
	}
	return nil
}

// Read decodes the next instruction record into out. It returns io.EOF
// at a clean end of trace and an ErrCorrupt-wrapped error when the
// stream ends mid-record or a record is malformed.
func (r *Reader) Read(out *isa.Inst) error {
	var one [1]isa.Inst
	n, err := r.readBatch(one[:])
	if n > 0 {
		*out = one[0]
	}
	return err
}

// readBatch decodes up to len(out) records and returns how many it
// decoded, with the error that stopped it short (io.EOF at a clean end
// of trace). Every record goes through decodeRecord: a v1 stream hands
// it a Peek window of maxRecordBytes, consumed with one Discard — no
// per-byte interface dispatch, no allocation — and a v2 stream hands it
// the rest of the current inflated block.
func (r *Reader) readBatch(out []isa.Inst) (int, error) {
	if r.version == Version2 {
		return r.readBlocks(out)
	}
	for i := range out {
		// The window is short only at the end of the stream or behind
		// a read error; a record cut off there does not decode.
		buf, perr := r.br.Peek(maxRecordBytes)
		if len(buf) == 0 && perr == io.EOF {
			return i, io.EOF
		}
		n, err := r.decodeRecord(buf, &out[i])
		if err != nil {
			if perr != nil && perr != io.EOF {
				err = corruptf("record %d: %v", r.records, perr)
			}
			return i, err
		}
		r.br.Discard(n)
	}
	return len(out), nil
}

// readBlocks is readBatch for v2: it decodes straight out of the
// current inflated block, loading the next block when one is drained
// and cross-checking each block against its header as it ends.
func (r *Reader) readBlocks(out []isa.Inst) (int, error) {
	n := 0
	for n < len(out) {
		if r.records == r.blkEnd.records {
			if err := r.loadBlock(); err != nil {
				return n, err
			}
		}
		end := n + int(min(r.blkEnd.records-r.records, uint64(len(out)-n)))
		for ; n < end; n++ {
			k, err := r.decodeRecord(r.raw[r.rawPos:], &out[n])
			if err != nil {
				return n, err
			}
			r.rawPos += k
		}
		if r.records == r.blkEnd.records {
			if err := r.finishBlock(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// finishBlock cross-checks a fully decoded block against its header:
// the payload must be exactly consumed and the decoded counts must
// match the declared ones, so a block whose header and body disagree
// (an index/offset mixup, a spliced file) is corrupt rather than a
// silently wrong replay.
func (r *Reader) finishBlock() error {
	if r.rawPos != len(r.raw) {
		return corruptf("block %d: %d trailing payload bytes", r.blocks-1, len(r.raw)-r.rawPos)
	}
	if off := r.tally.since(r.blkEnd); off != (tally{}) {
		return corruptf("block %d: decoded counts disagree with block header (insts off by %d, mem ops by %d)",
			r.blocks-1, off.insts, off.memOps)
	}
	return nil
}

// loadBlock reads the next block header, verifies the payload CRC, and
// inflates it into the reusable raw buffer. It returns io.EOF at the
// sentinel that ends the block section.
func (r *Reader) loadBlock() error {
	if r.v2eof {
		return io.EOF
	}
	nRec, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: header: %v", r.blocks, eofErr(err))
	}
	if nRec == 0 {
		// Sentinel: the record section is over. The index and trailer
		// that follow are for seekable readers; a sequential pass
		// simply stops here.
		r.v2eof = true
		return io.EOF
	}
	if nRec > blockRecords {
		return corruptf("block %d: record count %d exceeds %d", r.blocks, nRec, blockRecords)
	}
	nInsts, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: inst count: %v", r.blocks, eofErr(err))
	}
	nMemOps, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: mem-op count: %v", r.blocks, eofErr(err))
	}
	rawLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: raw length: %v", r.blocks, eofErr(err))
	}
	if rawLen < nRec || rawLen > maxBlockRaw {
		return corruptf("block %d: raw length %d out of range", r.blocks, rawLen)
	}
	compLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: compressed length: %v", r.blocks, eofErr(err))
	}
	if compLen == 0 || compLen > maxBlockComp {
		return corruptf("block %d: compressed length %d out of range", r.blocks, compLen)
	}
	if uint64(cap(r.comp)) < compLen {
		r.comp = make([]byte, compLen)
	}
	r.comp = r.comp[:compLen]
	if _, err := io.ReadFull(r.br, r.comp); err != nil {
		return corruptf("block %d: truncated payload: %v", r.blocks, eofErr(err))
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.br, crcb[:]); err != nil {
		return corruptf("block %d: truncated CRC: %v", r.blocks, eofErr(err))
	}
	want := binary.LittleEndian.Uint32(crcb[:])
	if got := crc32.ChecksumIEEE(r.comp); got != want {
		return corruptf("block %d: CRC mismatch (got %#x, want %#x)", r.blocks, got, want)
	}
	if uint64(cap(r.raw)) < rawLen {
		r.raw = make([]byte, rawLen)
	}
	r.raw = r.raw[:rawLen]
	r.frSrc.Reset(r.comp)
	if r.fr == nil {
		r.fr = flate.NewReader(&r.frSrc)
	} else if err := r.fr.(flate.Resetter).Reset(&r.frSrc, nil); err != nil {
		return corruptf("block %d: flate reset: %v", r.blocks, err)
	}
	if _, err := io.ReadFull(r.fr, r.raw); err != nil {
		return corruptf("block %d: inflate: %v", r.blocks, eofErr(err))
	}
	var one [1]byte
	if n, _ := r.fr.Read(one[:]); n != 0 {
		return corruptf("block %d: inflates past its declared raw length %d", r.blocks, rawLen)
	}
	r.rawPos = 0
	// Per-block delta reset: each block decodes from a zero base, so
	// blocks are independently decodable.
	r.prevPC, r.prevAddr = 0, 0
	// finishBlock requires the decoded counts to land exactly on the
	// declared ones.
	r.blkEnd = tally{r.records + nRec, r.insts + nInsts, r.memOps + nMemOps}
	r.blocks++
	r.rawBytes += rawLen
	r.compBytes += compLen
	return nil
}

// Records returns the number of records decoded so far.
func (r *Reader) Records() uint64 { return r.records }

// Insts returns the dynamic instruction count decoded so far.
func (r *Reader) Insts() uint64 { return r.insts }

// MemOps returns the memory-operand instruction count decoded so far.
func (r *Reader) MemOps() uint64 { return r.memOps }

// Close releases the gzip envelope and the file, if Open opened one.
func (r *Reader) Close() error {
	var err error
	if r.gz != nil {
		err = r.gz.Close()
	}
	if r.file != nil {
		if e := r.file.Close(); err == nil {
			err = e
		}
	}
	return err
}

func (r *Reader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, corruptf("%s: %v", what, eofErr(err))
	}
	return v, nil
}

// eofErr normalises a mid-field EOF so error text says "truncated"
// rather than the misleading bare "EOF".
func eofErr(err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("truncated (unexpected EOF)")
	}
	return err
}
