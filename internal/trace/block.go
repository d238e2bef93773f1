package trace

import (
	"encoding/binary"
	"hash/crc32"
	"os"
)

// VTRC v2 container constants. A v2 file shares the v1 header (magic,
// version, flags, metadata) but stores the record section as a sequence
// of independently decodable blocks, each a flate frame with its own
// delta-decode state, followed by a sentinel, a block index, and a
// fixed-size trailer that locates the index (docs/trace-format.md).
const (
	// TrailerMagic closes every v2 file; readers locate the block index
	// by reading the fixed-size trailer from the end of the file.
	TrailerMagic = "VTRX"
	// trailerSize is the byte length of the fixed trailer:
	// uint64 index offset, uint32 index length, uint32 index CRC, magic.
	trailerSize = 8 + 4 + 4 + 4

	// blockRecords is the writer's records-per-block target. 16Ki
	// records keep a decoded block arena under ~400KB (24B/record)
	// while amortising the flate frame overhead to noise.
	blockRecords = 1 << 14

	// maxBlockRaw bounds a block's uncompressed payload: blockRecords
	// worst-case records. A larger claimed rawLen is corrupt, never an
	// attempted allocation.
	maxBlockRaw = blockRecords * maxRecordBytes
	// maxBlockComp bounds a block's compressed payload. Flate can
	// expand incompressible input by a small factor plus framing; a
	// claimed compLen beyond this is corrupt.
	maxBlockComp = maxBlockRaw + maxBlockRaw>>1 + 256

	// maxIndexBytes bounds the index a reader will buffer; a v2 file
	// would need tens of millions of blocks to exceed it.
	maxIndexBytes = 1 << 28
)

// blockInfo is one block-index entry: where a block lives in the file
// and what it holds, enough to decode it in isolation (seek to Off,
// verify CRC, inflate RawLen bytes, decode Records records) and to
// answer whole-file counts without touching the record section.
type blockInfo struct {
	// Off is the absolute file offset of the block header.
	Off uint64
	// Records, Insts, MemOps are the block's record count, dynamic
	// instruction count (batched ops at their batch size, delays
	// excluded), and memory-operand instruction count.
	Records uint64
	Insts   uint64
	MemOps  uint64
	// RawLen and CompLen are the uncompressed and compressed payload
	// sizes in bytes.
	RawLen  uint64
	CompLen uint64
	// CRC is the IEEE CRC-32 of the compressed payload.
	CRC uint32
}

// appendIndex serialises the block index: a block count followed by one
// varint-packed entry per block.
func appendIndex(dst []byte, blocks []blockInfo) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, b.Off)
		dst = binary.AppendUvarint(dst, b.Records)
		dst = binary.AppendUvarint(dst, b.Insts)
		dst = binary.AppendUvarint(dst, b.MemOps)
		dst = binary.AppendUvarint(dst, b.RawLen)
		dst = binary.AppendUvarint(dst, b.CompLen)
		dst = binary.LittleEndian.AppendUint32(dst, b.CRC)
	}
	return dst
}

// minIndexEntryBytes is the smallest possible serialised index entry
// (six one-byte varints plus the CRC), used to sanity-bound the block
// count against the index length before allocating.
const minIndexEntryBytes = 6 + 4

// parseIndex decodes a serialised block index and validates every entry
// against the format limits and monotonic file layout. indexOff is the
// file offset the index itself starts at: every block must live
// strictly before it.
func parseIndex(buf []byte, indexOff uint64) ([]blockInfo, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, corruptf("index: bad block count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)/minIndexEntryBytes)+1 {
		return nil, corruptf("index: block count %d exceeds index size", count)
	}
	blocks := make([]blockInfo, 0, count)
	prevEnd := uint64(0)
	for i := uint64(0); i < count; i++ {
		var b blockInfo
		for _, f := range []*uint64{&b.Off, &b.Records, &b.Insts, &b.MemOps, &b.RawLen, &b.CompLen} {
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, corruptf("index: truncated entry %d", i)
			}
			*f, buf = v, buf[n:]
		}
		if len(buf) < 4 {
			return nil, corruptf("index: truncated entry %d CRC", i)
		}
		b.CRC = binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if b.Records == 0 || b.Records > blockRecords {
			return nil, corruptf("index: entry %d record count %d out of range", i, b.Records)
		}
		if b.RawLen < b.Records || b.RawLen > maxBlockRaw {
			return nil, corruptf("index: entry %d raw length %d out of range", i, b.RawLen)
		}
		if b.CompLen == 0 || b.CompLen > maxBlockComp {
			return nil, corruptf("index: entry %d compressed length %d out of range", i, b.CompLen)
		}
		if b.Off < prevEnd || b.Off >= indexOff {
			return nil, corruptf("index: entry %d offset %d out of order", i, b.Off)
		}
		// The block's on-disk span (header varints + payload + CRC)
		// must also end before the index; header size is bounded by
		// five maximal varints.
		end := b.Off + b.CompLen + 4
		if end >= indexOff {
			return nil, corruptf("index: entry %d overruns the index", i)
		}
		prevEnd = end
		blocks = append(blocks, b)
	}
	if len(buf) != 0 {
		return nil, corruptf("index: %d trailing bytes", len(buf))
	}
	return blocks, nil
}

// readIndexFile reads and validates a v2 file's trailer and block index
// with positioned reads, leaving the file's seek offset untouched. It
// returns the parsed index, the file offset the index starts at, and
// the serialised index length in bytes.
func readIndexFile(f *os.File) (blocks []blockInfo, indexOff uint64, indexLen int, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, 0, corruptf("index: %v", err)
	}
	size := fi.Size()
	if size < trailerSize+8 {
		return nil, 0, 0, corruptf("file too small for a v2 trailer (%d bytes)", size)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, 0, 0, corruptf("trailer: %v", err)
	}
	if string(tr[16:20]) != TrailerMagic {
		return nil, 0, 0, corruptf("bad trailer magic %q (want %q)", tr[16:20], TrailerMagic)
	}
	indexOff = binary.LittleEndian.Uint64(tr[0:8])
	indexLen = int(binary.LittleEndian.Uint32(tr[8:12]))
	wantCRC := binary.LittleEndian.Uint32(tr[12:16])
	if indexLen > maxIndexBytes {
		return nil, 0, 0, corruptf("index length %d exceeds %d", indexLen, maxIndexBytes)
	}
	if indexOff+uint64(indexLen)+trailerSize != uint64(size) {
		return nil, 0, 0, corruptf("index span [%d,+%d) does not meet the trailer (file %d bytes)",
			indexOff, indexLen, size)
	}
	raw := make([]byte, indexLen)
	if _, err := f.ReadAt(raw, int64(indexOff)); err != nil {
		return nil, 0, 0, corruptf("index: %v", err)
	}
	if got := crc32.ChecksumIEEE(raw); got != wantCRC {
		return nil, 0, 0, corruptf("index CRC mismatch (got %#x, want %#x)", got, wantCRC)
	}
	blocks, err = parseIndex(raw, indexOff)
	if err != nil {
		return nil, 0, 0, err
	}
	return blocks, indexOff, indexLen, nil
}
