package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/workloads"
)

// VirtualizedSystem implements §6.1: Virtuoso spawns *two* MimicOS
// instances — one imitating the guest OS and one imitating the
// hypervisor (KVM-like). Guest page faults run the guest kernel; when
// the guest's "physical" memory needs backing, the request nests into
// the hypervisor kernel, and the simulator captures the instruction
// streams of both. Address translation uses the two-dimensional nested
// walker (guest PT over the host/extended PT) with a nested TLB.
type VirtualizedSystem struct {
	Guest *mimicos.Kernel // imitates the guest Linux
	Host  *mimicos.Kernel // imitates the hypervisor
	Proc  *mimicos.Process
	hproc *mimicos.Process

	Dram *dram.Controller
	Hier *cache.Hierarchy
	MMU  *mmu.MMU
	Core *cpu.Core

	FuncChan   *FunctionalChannel
	StreamChan *StreamChannel

	// GuestFaults / HostFaults count the nested round trips.
	GuestFaults uint64
	HostFaults  uint64
	segvs       uint64
	hostVABase  mem.VAddr
	refPath     bool
}

// VirtualizedConfig configures the two-kernel system.
type VirtualizedConfig struct {
	GuestPhysBytes uint64 // guest "physical" memory (hypervisor-backed)
	HostPhysBytes  uint64 // machine memory
	CoreCfg        cpu.Config
	CacheCfg       cache.HierarchyConfig
	MMUCfg         mmu.Config
	DramCfg        dram.Config
	Seed           uint64

	// ReferencePath sets Run's frontend batch length to one instruction,
	// mirroring Config.ReferencePath for the two-kernel system.
	ReferencePath bool `json:"-"`
}

// DefaultVirtualizedConfig returns a small two-level system.
func DefaultVirtualizedConfig() VirtualizedConfig {
	return VirtualizedConfig{
		GuestPhysBytes: 1 * mem.GB,
		HostPhysBytes:  2 * mem.GB,
		CoreCfg:        cpu.DefaultConfig(),
		CacheCfg:       cache.DefaultHierarchyConfig(),
		MMUCfg:         mmu.DefaultConfig(),
		DramCfg:        dram.DDR4_2400(),
		Seed:           1,
	}
}

// NewVirtualizedSystem wires guest and hypervisor kernels over a nested
// MMU design. It returns an error when the cache geometry is invalid.
func NewVirtualizedSystem(cfg VirtualizedConfig) (*VirtualizedSystem, error) {
	if cfg.GuestPhysBytes == 0 {
		cfg = DefaultVirtualizedConfig()
	}
	if err := cfg.CacheCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid cache config: %w", err)
	}
	v := &VirtualizedSystem{hostVABase: 0x2000_0000_0000, refPath: cfg.ReferencePath}

	gcfg := mimicos.DefaultConfig()
	gcfg.PhysBytes = cfg.GuestPhysBytes
	gcfg.Seed = cfg.Seed
	v.Guest = mimicos.New(gcfg, nil)
	v.Proc = v.Guest.CreateProcess(1)

	hcfg := mimicos.DefaultConfig()
	hcfg.PhysBytes = cfg.HostPhysBytes
	hcfg.Seed = cfg.Seed ^ 0x505
	v.Host = mimicos.New(hcfg, nil)
	v.hproc = v.Host.CreateProcess(1)
	// The hypervisor maps the guest's whole physical address space as one
	// anonymous VMA in its own space (gPA + hostVABase), demand-backed:
	// every first touch of a guest frame is a host-level fault (EPT
	// violation), handled by the hypervisor kernel.
	v.Host.Mmap(1, cfg.GuestPhysBytes, mimicos.MmapFlags{Anon: true, FixedAddr: v.hostVABase})
	v.Host.Tracer.Begin()

	v.Dram = dram.NewController(cfg.DramCfg)
	v.Hier = cache.NewHierarchy(cfg.CacheCfg, v.Dram)

	design := mmu.NewNestedDesign(v.Proc.PT, &hostPT{v: v}, v.Hier)
	v.MMU = mmu.New(cfg.MMUCfg, design, v.Proc.ASID)
	v.Core = cpu.New(cfg.CoreCfg, v.Hier, v.MMU)
	v.FuncChan = NewFunctionalChannel(func(req Request) Response {
		return Response{Fault: v.Guest.HandlePageFault(req.PID, req.VA, req.Write, req.Now)}
	})
	v.StreamChan = &StreamChannel{}
	v.Core.SetFaultHandler(v.handleFault)
	v.Guest.SetUnmapNotifier(func(pid int, va mem.VAddr, size mem.PageSize) {
		v.MMU.Invalidate(va, size)
	})
	return v, nil
}

// hostPT adapts the hypervisor's view (gPA -> hPA, demand-faulted) to
// the nested walker's host dimension: walks consult the hypervisor
// process's page table at the gPA's host virtual address, and a miss is
// an EPT violation handled by the hypervisor kernel.
type hostPT struct {
	v *VirtualizedSystem
}

// Kind implements pagetable.PageTable.
func (h *hostPT) Kind() string { return "ept" }

// Walk implements pagetable.PageTable: it translates a guest-physical
// address through the hypervisor PT, faulting into the hypervisor kernel
// on first touch (EPT violation) — the §6.1 nested hand-off.
func (h *hostPT) Walk(gpa mem.VAddr) pagetable.WalkResult {
	hva := h.v.hostVABase + gpa
	w := h.v.hproc.PT.Walk(hva)
	if !w.Found || !w.Entry.Present {
		out := h.v.Host.HandlePageFault(1, hva, true, h.v.Core.Now())
		h.v.HostFaults++
		if out.OK {
			stream := h.v.StreamChan.Deliver(h.v.Host.TakeStream())
			h.v.Core.RunStream(stream)
			w = h.v.hproc.PT.Walk(hva)
		}
	}
	return w
}

// Lookup implements pagetable.PageTable.
func (h *hostPT) Lookup(gpa mem.VAddr) (pagetable.Entry, bool) {
	return h.v.hproc.PT.Lookup(h.v.hostVABase + gpa)
}

// Insert implements pagetable.PageTable (the hypervisor kernel owns its
// page table; the walker never inserts).
func (h *hostPT) Insert(va mem.VAddr, e pagetable.Entry, k instrument.KernelMem) error {
	return h.v.hproc.PT.Insert(h.v.hostVABase+va, e, k)
}

// Update implements pagetable.PageTable.
func (h *hostPT) Update(va mem.VAddr, e pagetable.Entry, k instrument.KernelMem) bool {
	return h.v.hproc.PT.Update(h.v.hostVABase+va, e, k)
}

// Remove implements pagetable.PageTable.
func (h *hostPT) Remove(va mem.VAddr, k instrument.KernelMem) (pagetable.Entry, bool) {
	return h.v.hproc.PT.Remove(h.v.hostVABase+va, k)
}

// MappedPages implements pagetable.PageTable.
func (h *hostPT) MappedPages() uint64 { return h.v.hproc.PT.MappedPages() }

// MemFootprintBytes implements pagetable.PageTable.
func (h *hostPT) MemFootprintBytes() uint64 { return h.v.hproc.PT.MemFootprintBytes() }

var _ pagetable.PageTable = (*hostPT)(nil)

// handleFault routes guest faults through the functional channel.
func (v *VirtualizedSystem) handleFault(va mem.VAddr, write bool) bool {
	resp := v.FuncChan.Call(Request{Kind: EvPageFault, PID: 1, VA: va, Write: write, Now: v.Core.Now()})
	if !resp.Fault.OK {
		v.segvs++
		return false
	}
	v.GuestFaults++
	v.Core.RunStream(v.StreamChan.Deliver(v.Guest.TakeStream()))
	return true
}

// Run simulates the workload inside the guest.
func (v *VirtualizedSystem) Run(w *workloads.Workload, maxApp uint64) (guestFaults, hostFaults, kernelInsts uint64, ipc float64) {
	v.Guest.Mmap(1, 32*mem.MB, mimicos.MmapFlags{File: true, FileID: 0xC0DE, FixedAddr: 0x400000})
	w.Setup(v.Guest, 1)
	v.Guest.Tracer.Begin()
	f := frontend{src: w.Source(11), buf: make([]isa.Inst, batchLen(v.refPath))}
	appEnd := noBound
	if maxApp > 0 {
		appEnd = maxApp
	}
run:
	for f.refill() > 0 {
		for _, in := range f.buf[:f.n] {
			v.Core.Run(in)
			if v.Core.Stats().AppInsts >= appEnd {
				break run
			}
		}
	}
	st := v.Core.Stats()
	return v.GuestFaults, v.HostFaults, st.KernelInsts, st.IPC()
}
