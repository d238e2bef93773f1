package core

import (
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/pagetable"
	"repro/internal/recycle"
)

// Nested translation (§6.1): the nested design runs the workload in a
// guest — System.OS imitates the guest Linux — on a second MimicOS
// kernel imitating the hypervisor (KVM-like). Guest faults run the
// guest kernel as in any other design; the first touch of a guest
// frame is an EPT violation handled by the hypervisor kernel, and the
// core executes both kernels' instruction streams.

// hostVABase is where the hypervisor maps guest-physical memory in its
// own address space: guest-physical address gpa lives at hostVABase+gpa.
const hostVABase mem.VAddr = 0x2000_0000_0000

// buildHost boots the hypervisor kernel behind guest-physical memory of
// guestPhys bytes: twice that much machine memory, the buddy policy, no
// disk, and one anonymous demand-backed VMA covering the guest's whole
// physical address space.
func (s *System) buildHost(guestPhys uint64, pool *recycle.Pool) {
	hcfg := mimicos.DefaultConfig()
	hcfg.PhysBytes = 2 * guestPhys
	hcfg.Seed = s.Cfg.Seed ^ 0x505
	s.host = mimicos.NewWith(hcfg, nil, pool)
	s.hostPT = &hostPT{s: s, proc: s.host.CreateProcess(1)}
	s.host.Mmap(1, guestPhys, mimicos.MmapFlags{Anon: true, FixedAddr: hostVABase})
	s.host.Tracer.Begin()
}

// hostPT is the host dimension of the nested walk: it translates a
// guest-physical address through the hypervisor process's page table
// and, on a miss, faults into the hypervisor kernel (an EPT violation)
// and injects its instruction stream into the core. One hostPT serves
// every guest process, as one hypervisor mapping backs the guest.
type hostPT struct {
	s    *System
	proc *mimicos.Process
}

// Walk implements mmu.Walker.
func (h *hostPT) Walk(gpa mem.VAddr) pagetable.WalkResult {
	hva := hostVABase + gpa
	w := h.proc.PT.Walk(hva)
	if !w.Found || !w.Entry.Present {
		s := h.s
		out := s.host.HandlePageFault(1, hva, true, s.Core.Now())
		s.hostFaults++
		if out.OK {
			s.inject(s.host)
			w = h.proc.PT.Walk(hva)
		}
	}
	return w
}
