package trace

import (
	"io"

	"repro/internal/isa"
)

// Info summarises a trace file: its header plus whole-file counts. A
// v2 file answers from its block index with O(1) positioned reads; a
// v1 file (or a gzip-enveloped stream) is counted by streaming every
// record once.
type Info struct {
	Header
	// Records is the number of instruction records in the file.
	Records uint64
	// Insts is the dynamic instruction count (batched ops at their
	// batch size, delays excluded).
	Insts uint64
	// MemOps is the dynamic count of memory-operand instructions.
	MemOps uint64
	// Compressed reports whether the record section is compressed: a
	// v1 gzip envelope, or the always-block-compressed v2 container.
	Compressed bool
	// Version is the file's major format version.
	Version int
	// Blocks is the number of record blocks (v2 only).
	Blocks int
	// IndexBytes is the serialised block index size (v2 only).
	IndexBytes int
	// RawBytes and CompBytes are the uncompressed and compressed block
	// payload totals (v2 only); their ratio is the file's record
	// compression ratio.
	RawBytes  uint64
	CompBytes uint64
}

// ReadInfo opens path, validates the header, and summarises the file.
// For a plain v2 file the counts come straight from the CRC-checked
// block index — constant work regardless of trace length. Anything
// else (v1, or a gzip-wrapped stream) streams the whole record
// section, holding only a buffer's worth of the file at a time.
func ReadInfo(path string) (Info, error) {
	r, err := Open(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	if r.version == Version2 && r.gz == nil && r.file != nil {
		blocks, _, indexLen, err := readIndexFile(r.file)
		if err != nil {
			return Info{}, err
		}
		info := Info{
			Header:     r.Header(),
			Compressed: true,
			Version:    Version2,
			Blocks:     len(blocks),
			IndexBytes: indexLen,
		}
		for _, b := range blocks {
			info.Records += b.Records
			info.Insts += b.Insts
			info.MemOps += b.MemOps
			info.RawBytes += b.RawLen
			info.CompBytes += b.CompLen
		}
		return info, nil
	}
	var in isa.Inst
	for {
		err := r.Read(&in)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Info{}, err
		}
	}
	return Info{
		Header:     r.Header(),
		Records:    r.Records(),
		Insts:      r.Insts(),
		MemOps:     r.MemOps(),
		Compressed: r.gz != nil || r.version == Version2,
		Version:    r.version,
		Blocks:     int(r.blocks),
		IndexBytes: 0,
		RawBytes:   r.rawBytes,
		CompBytes:  r.compBytes,
	}, nil
}

// ReadHeader opens path just far enough to validate and return its
// header — the cheap existence/format check used before a replay run
// starts. It reads through a small buffer, not a streaming one.
func ReadHeader(path string) (Header, error) {
	r, err := openFile(path, headerBufSize, nil)
	if err != nil {
		return Header{}, err
	}
	defer r.Close()
	return r.Header(), nil
}
