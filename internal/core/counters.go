package core

import (
	"unsafe"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/ssd"
)

// Counters is one read of every layer's cumulative statistics: the one
// place Metrics, Snapshots and per-process slices take them from. Every
// leaf is a uint64, so a Counters is an array of uint64 with no padding
// and Sub subtracts word by word (TestCountersSubCoversEveryField keeps
// it that way).
type Counters struct {
	Core             cpu.Stats
	MMU              mmu.Stats
	L1I, L1D, L2, L3 cache.Stats
	Dram             dram.Stats
	OS               mimicos.Stats
	Disk             ssd.Stats

	// Engine-level counts: fault round trips the kernel failed (the
	// core counts its own SegvFaults), EPT violations the nested
	// design's host kernel handled, fault device time, and the two
	// channels' volumes.
	Segvs               uint64
	HostFaults          uint64
	SwapDeviceCycles    uint64
	StreamedKernelInsts uint64
	FunctionalMessages  uint64
}

// counters reads every layer's statistics.
func (s *System) counters() Counters {
	return Counters{
		Core: *s.Core.Stats(), MMU: *s.MMU.Stats(),
		L1I: *s.Hier.L1I.Stats(), L1D: *s.Hier.L1D.Stats(), L2: *s.Hier.L2.Stats(), L3: *s.Hier.L3.Stats(),
		Dram: *s.Dram.Stats(), OS: *s.OS.Stats(), Disk: *s.Disk.Stats(),

		Segvs:               s.segvs,
		HostFaults:          s.hostFaults,
		SwapDeviceCycles:    s.swapDeviceCycles,
		StreamedKernelInsts: s.StreamChan.Insts,
		FunctionalMessages:  s.FuncChan.Messages,
	}
}

// L2TLBMPKI returns L2 TLB misses per thousand application instructions.
func (c Counters) L2TLBMPKI() float64 {
	if c.Core.AppInsts == 0 {
		return 0
	}
	return float64(c.MMU.L2TLBMisses) / float64(c.Core.AppInsts) * 1000
}

// Sub returns c − prev field by field: the counts accrued between two
// reads. uint64 arithmetic wraps, so acc.Sub(before.Sub(after)) adds the
// same interval to a running sum acc.
func (c Counters) Sub(prev Counters) Counters {
	type words = [unsafe.Sizeof(Counters{}) / 8]uint64
	d, p := (*words)(unsafe.Pointer(&c)), (*words)(unsafe.Pointer(&prev))
	for i := range d {
		d[i] -= p[i]
	}
	return c
}
