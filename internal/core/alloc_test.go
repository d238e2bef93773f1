package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
)

// TestSteadyStateZeroAllocs locks in the fast lane's allocation-free
// steady state: once a region is mapped and warmed, driving the core
// over it — TLB lookups, page walks, cache and DRAM accesses, the
// prefetchers — must not allocate at all. Page-table nodes and entries
// come from arenas, prefetcher candidate buffers are reused, and the
// frontend buffer lives on the System, so per-instruction allocations
// are a regression this test catches.
func TestSteadyStateZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OSCfg.PhysBytes = 1 * mem.GB
	s := MustNewSystem(cfg)

	// Address-space setup by hand (what Run's loader phase does): the
	// text segment backs instruction fetches, the data region the loads.
	s.OS.Mmap(1, TextSegBytes, mimicos.MmapFlags{
		File: true, FileID: TextSegFileID, FixedAddr: TextSegBase,
	})
	const dataBytes = 8 * mem.MB
	base := s.OS.Mmap(1, dataBytes, mimicos.MmapFlags{Anon: true})
	s.OS.Tracer.Begin()

	// Warm-up: first-touch every page (faults, kernel streams, page-table
	// growth — allocations allowed here), then touch again so the TLBs
	// and caches settle.
	var warm isa.Stream
	for off := uint64(0); off < dataBytes; off += 4 * mem.KB {
		warm = append(warm, isa.Store(uint64(TextSegBase)+64, base+mem.VAddr(off)))
	}
	warmSrc := &isa.SliceSource{S: warm}
	s.RunSteps(warmSrc, 0)
	warmSrc.Reset()
	s.RunSteps(warmSrc, 0)

	// Steady state: loads over the mapped, warmed region. Every access
	// translates and hits memory, no faults, no kernel entry.
	var loads isa.Stream
	for off := uint64(0); off < dataBytes; off += 4 * mem.KB {
		loads = append(loads, isa.Load(uint64(TextSegBase)+128, base+mem.VAddr(off)))
	}
	src := &isa.SliceSource{S: loads}
	faults0 := s.OS.Stats().MinorFaults

	avg := testing.AllocsPerRun(10, func() {
		src.Reset()
		s.RunSteps(src, 0)
	})
	if avg != 0 {
		t.Fatalf("steady-state step loop allocates %.1f times per %d instructions (want 0)", avg, len(loads))
	}
	if f := s.OS.Stats().MinorFaults; f != faults0 {
		t.Fatalf("steady state was not steady: %d faults during measurement", f-faults0)
	}
}

// TestRunLoopBatchZeroAllocs verifies the run loop at the fast lane's
// batch length adds no per-batch allocations: FillBatch into the
// system's frontend buffer plus the per-instruction dispatch sequence
// is allocation-free end to end.
func TestRunLoopBatchZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OSCfg.PhysBytes = 1 * mem.GB
	s := MustNewSystem(cfg)
	s.OS.Mmap(1, TextSegBytes, mimicos.MmapFlags{
		File: true, FileID: TextSegFileID, FixedAddr: TextSegBase,
	})
	const dataBytes = 4 * mem.MB
	base := s.OS.Mmap(1, dataBytes, mimicos.MmapFlags{Anon: true})
	s.OS.Tracer.Begin()

	var stream isa.Stream
	for off := uint64(0); off < dataBytes; off += 4 * mem.KB {
		stream = append(stream, isa.Store(uint64(TextSegBase)+64, base+mem.VAddr(off)))
	}
	warmSrc := &isa.SliceSource{S: stream}
	s.RunSteps(warmSrc, 0)

	src := &isa.SliceSource{S: stream}
	avg := testing.AllocsPerRun(10, func() {
		src.Reset()
		f := frontend{src: src, buf: s.batchBuf(batchSize)}
		s.drive(&f, noBound, noBound)
	})
	if avg != 0 {
		t.Fatalf("batched run loop allocates %.1f times per pass (want 0)", avg)
	}
}
