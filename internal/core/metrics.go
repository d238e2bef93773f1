package core

import (
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/mimicos"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/tier"
)

// Metrics is the result of one simulation run — the raw material of
// every figure in the evaluation.
type Metrics struct {
	Workload string
	Design   string
	Policy   string
	Mode     Mode

	AppInsts    uint64
	KernelInsts uint64
	Cycles      uint64
	IPC         float64

	TranslationCycles uint64
	MemoryCycles      uint64
	FaultCycles       uint64
	DelayCycles       uint64
	CtxSwitchCycles   uint64 // scheduler switch cost (multiprogrammed runs)

	L2TLBMisses uint64
	L2TLBMPKI   float64
	Walks       uint64
	AvgPTWLat   float64
	WalkCycles  uint64

	FrontendCycles uint64 // Midgard frontend share (Fig. 17)
	BackendCycles  uint64

	MinorFaults uint64
	MajorFaults uint64
	Segvs       uint64
	// HostFaults counts the EPT violations the nested design's
	// hypervisor kernel handled (always 0, and omitted from JSON, for
	// every other design).
	HostFaults uint64 `json:",omitempty"`

	// PFLatNs is the per-minor-fault latency series in nanoseconds (nil
	// unless tracked); MajorPFLatNs covers device-backed faults.
	PFLatNs      *stats.Series
	MajorPFLatNs *stats.Series

	SwapDeviceCycles uint64 // engine-observed fault device time
	OS               mimicos.Stats
	Dram             dram.Stats
	// Tiers holds the per-tier migration counters (nil without slow
	// tiers configured); SwapDev is the swap device's own view of its
	// traffic (reads/writes, queueing, busy time) when a disk is attached.
	Tiers   []tier.Stats `json:",omitempty"`
	SwapDev ssd.Stats

	StreamedKernelInsts uint64
	FunctionalMessages  uint64

	WallTime     time.Duration
	SimHeapBytes uint64
}

// TranslationFraction returns translation cycles / total cycles (Fig. 1).
func (m *Metrics) TranslationFraction() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.TranslationCycles) / float64(m.Cycles)
}

// AllocationFraction returns page-fault-handler cycles / total cycles
// (Fig. 1's "physical memory allocation").
func (m *Metrics) AllocationFraction() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.FaultCycles) / float64(m.Cycles)
}

// KernelInstFraction returns the share of simulated instructions executed
// by MimicOS (Fig. 12's x-axis).
func (m *Metrics) KernelInstFraction() float64 {
	t := m.AppInsts + m.KernelInsts
	if t == 0 {
		return 0
	}
	return float64(m.KernelInsts) / float64(t)
}

func (s *System) collect(name string, wall time.Duration, before, after runtime.MemStats) Metrics {
	cs := s.Core.Stats()
	ms := s.MMU.Stats()
	os := *s.OS.Stats()
	ds := *s.Dram.Stats()

	m := Metrics{
		Workload: name,
		Design:   string(s.Cfg.Design),
		Policy:   s.OS.Policy().Name(),
		Mode:     s.Cfg.Mode,

		AppInsts:    cs.AppInsts,
		KernelInsts: cs.KernelInsts,
		Cycles:      cs.Cycles,
		IPC:         cs.IPC(),

		TranslationCycles: cs.TranslationCycles,
		MemoryCycles:      cs.MemoryCycles,
		FaultCycles:       cs.FaultCycles,
		DelayCycles:       cs.DelayCycles,
		CtxSwitchCycles:   cs.CtxSwitchCycles,

		L2TLBMisses: ms.L2TLBMisses,
		Walks:       ms.Walks,
		AvgPTWLat:   ms.AvgWalkLatency(),
		WalkCycles:  ms.WalkCycles,

		FrontendCycles: ms.FrontendCycles,
		BackendCycles:  ms.BackendCycles,

		MinorFaults: os.MinorFaults,
		MajorFaults: os.MajorFaults,
		Segvs:       s.segvs + cs.SegvFaults,
		HostFaults:  s.hostFaults,

		PFLatNs:      s.PFLatNs,
		MajorPFLatNs: s.MajorPFLatNs,

		SwapDeviceCycles: s.swapDeviceCycles,
		OS:               os,
		Dram:             ds,
		Tiers:            s.OS.TierStats(),

		StreamedKernelInsts: s.StreamChan.Insts,
		FunctionalMessages:  s.FuncChan.Messages,

		WallTime: wall,
	}
	if s.Disk != nil {
		m.SwapDev = *s.Disk.Stats()
	}
	if cs.AppInsts > 0 {
		m.L2TLBMPKI = float64(ms.L2TLBMisses) / float64(cs.AppInsts) * 1000
	}
	if after.HeapAlloc > before.HeapAlloc {
		m.SimHeapBytes = after.HeapAlloc - before.HeapAlloc
	}
	return m
}
