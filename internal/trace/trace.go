// Package trace implements the Virtuoso instruction-trace file format:
// a versioned, compact binary container for the application instruction
// stream of one simulated run, plus the address-space layout needed to
// replay it. It is the storage layer behind the §6.2 trace-driven and
// memory-trace-driven frontends (ChampSim / Ramulator integration
// styles): any synthetic workload can be recorded once and replayed
// through core.FrontendTrace or core.FrontendMemTrace — or shipped to a
// different simulator entirely.
//
// A v2 trace file (the current writer default) is:
//
//	header  — magic "VTRC", version, flags, workload metadata,
//	          and the VMA layout Setup must replay
//	blocks  — fixed-size groups of varint/delta-encoded records,
//	          each an independent flate frame with its own delta
//	          state, ended by a sentinel
//	index   — one entry per block (offset, counts, sizes, CRC)
//	trailer — fixed-size locator for the index, magic "VTRX"
//
// Blocks are independently decodable, so a v2 file is seekable: whole-
// file counts come from the index without touching the record section.
// A v1 file is a single sequential record stream, optionally inside a
// whole-file gzip envelope; readers accept both versions forever and
// sniff the leading magic bytes rather than trusting the file
// extension.
//
// Both the Writer and the Reader stream: neither ever materialises the
// whole trace in memory, so multi-gigabyte traces cost at most a
// block's worth of buffer. Readers carry their own cursor and
// delta-decode state, so concurrent replays of one file (parallel
// sweeps) simply open one Reader each. The Shared store is the
// exception by design: it decodes a file once and hands refcounted
// read-only cursors over one in-memory copy to every replay point in a
// sweep.
//
// See docs/trace-format.md for the byte-level specification.
package trace

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/workloads"
)

// Magic is the 4-byte file signature.
const Magic = "VTRC"

// Version1 is the legacy sequential-stream format; Version2 is the
// block-compressed, seekable container the writer emits by default. A
// reader rejects files whose major version it does not know; minor
// versions are additive and readable by any reader of the same major.
const (
	Version1     = 1
	Version2     = 2
	VersionMinor = 0
)

// Limits guarding the reader against corrupt headers: a flipped bit in
// a length field must produce ErrCorrupt, not an attempted multi-GB
// allocation.
const (
	maxNameLen  = 4096
	maxSegments = 1 << 20
)

// ErrCorrupt is wrapped by every decode error caused by malformed or
// truncated trace data (as opposed to I/O failures).
var ErrCorrupt = fmt.Errorf("trace: corrupt trace")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Segment is one recorded VMA of the traced process's address space,
// minus the text segment (the engine maps that itself on every run).
// Replay re-creates each segment with an mmap at its recorded base, so
// the absolute virtual addresses in the instruction records stay valid.
type Segment struct {
	Start   mem.VAddr
	Length  uint64
	Anon    bool
	File    bool
	DAX     bool
	HugeTLB bool
	Huge1G  bool
	FileID  uint64
}

// Segment flag bits as stored in the file.
const (
	segAnon = 1 << iota
	segFile
	segDAX
	segHugeTLB
	segHuge1G
)

// SegmentOf captures a VMA as a layout segment.
func SegmentOf(v *mimicos.VMA) Segment {
	return Segment{
		Start: v.Start, Length: v.Len(),
		Anon: v.Anon, File: v.File, DAX: v.DAX,
		HugeTLB: v.HugeTLB, Huge1G: v.Huge1G,
		FileID: v.FileID,
	}
}

// MmapFlags returns the flags that re-create the segment at its
// recorded base.
func (s Segment) MmapFlags() mimicos.MmapFlags {
	return mimicos.MmapFlags{
		Anon: s.Anon, File: s.File, DAX: s.DAX,
		HugeTLB: s.HugeTLB, Huge1G: s.Huge1G,
		FileID:    s.FileID,
		FixedAddr: s.Start,
	}
}

func (s Segment) flagBits() uint8 {
	var b uint8
	if s.Anon {
		b |= segAnon
	}
	if s.File {
		b |= segFile
	}
	if s.DAX {
		b |= segDAX
	}
	if s.HugeTLB {
		b |= segHugeTLB
	}
	if s.Huge1G {
		b |= segHuge1G
	}
	return b
}

func segmentFromBits(b uint8) Segment {
	return Segment{
		Anon: b&segAnon != 0, File: b&segFile != 0, DAX: b&segDAX != 0,
		HugeTLB: b&segHugeTLB != 0, Huge1G: b&segHuge1G != 0,
	}
}

// Header is the trace file's metadata: enough to rebuild a runnable
// workload (name, class, footprint, layout) and to reproduce the run
// that was recorded (seed).
type Header struct {
	// Workload is the recorded workload's name, echoed into replayed
	// Metrics.
	Workload string
	// Class is the recorded workload's class (long- or short-running).
	Class workloads.Class
	// Footprint is the recorded workload's primary data footprint in
	// bytes.
	Footprint uint64
	// Seed is the simulation seed of the recording run; replaying with
	// the same seed and configuration reproduces the run bit for bit.
	Seed uint64
	// Layout is the address-space layout Setup must replay, in creation
	// order.
	Layout []Segment
}
