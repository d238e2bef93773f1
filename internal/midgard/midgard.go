// Package midgard implements the Midgard intermediate address space
// (Gupta et al., ISCA'21), Use Case 3 (§7.6.1, Figs. 17, 18): the
// frontend translates virtual addresses to *Midgard addresses* at VMA
// granularity (cached in VMA lookaside buffers, missing into a B-tree of
// VMAs), deferring the Midgard→physical translation (backend, a deep
// radix table) until a memory access actually leaves the cache hierarchy.
package midgard

import (
	"sort"

	"repro/internal/mem"
)

// MAddr is a Midgard (intermediate) address.
type MAddr uint64

// VMA is one virtual memory area mapped into the Midgard space: VA range
// [VStart, VEnd) maps linearly to MA range starting at MBase.
type VMA struct {
	VStart mem.VAddr
	VEnd   mem.VAddr
	MBase  MAddr
}

// Translate maps va into the Midgard space.
func (v VMA) Translate(va mem.VAddr) MAddr { return v.MBase + MAddr(va-v.VStart) }

// Contains reports whether va is inside the VMA.
func (v VMA) Contains(va mem.VAddr) bool { return va >= v.VStart && va < v.VEnd }

// KernelMem mirrors the instrumentation interface for kernel-side updates.
type KernelMem interface {
	Load(pa mem.PAddr)
	Store(pa mem.PAddr)
	ALU(n uint32)
}

// Space is the per-process Midgard state: the VMA tree (frontend) and
// the allocation cursor of the MA space. The backend Midgard→physical
// page table is owned by the MMU design (it is hardware-walked).
type Space struct {
	vmas     []VMA
	nextMA   MAddr
	nodeBase mem.PAddr // kernel B-tree nodes for the frontend walk
	fanout   int

	FrontendWalks uint64
	WalkSteps     uint64
}

// NewSpace builds an empty Midgard space with frontend tree nodes at
// nodeBase.
func NewSpace(nodeBase mem.PAddr) *Space {
	return &Space{nextMA: 1 << 30, nodeBase: nodeBase, fanout: 8}
}

// AddVMA maps [start, end) into a fresh MA range and returns the VMA.
func (s *Space) AddVMA(start, end mem.VAddr, k KernelMem) VMA {
	v := VMA{VStart: start, VEnd: end, MBase: s.nextMA}
	s.nextMA += MAddr(mem.AlignUp(uint64(end-start), 2*mem.MB)) + 2*mem.MB
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].VStart >= start })
	s.vmas = append(s.vmas, VMA{})
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
	for _, pa := range s.pathTo(i) {
		k.Load(pa)
	}
	k.Store(s.nodeBase + mem.PAddr(i*64))
	k.ALU(48)
	return v
}

// RemoveVMA unmaps VMAs overlapping [start, end).
func (s *Space) RemoveVMA(start, end mem.VAddr, k KernelMem) int {
	kept := s.vmas[:0]
	removed := 0
	for _, v := range s.vmas {
		if v.VStart < end && start < v.VEnd {
			removed++
			continue
		}
		kept = append(kept, v)
	}
	s.vmas = kept
	if removed > 0 {
		k.Store(s.nodeBase)
		k.ALU(uint32(16 * removed))
	}
	return removed
}

// Find locates the VMA containing va; steps receives the frontend
// B-tree node addresses the hardware VMA walker touches on a VLB miss.
func (s *Space) Find(va mem.VAddr, steps *[]mem.PAddr) (VMA, bool) {
	s.FrontendWalks++
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].VEnd > va })
	for _, pa := range s.pathTo(i) {
		if steps != nil {
			*steps = append(*steps, pa)
		}
		s.WalkSteps++
	}
	if i < len(s.vmas) && s.vmas[i].Contains(va) {
		return s.vmas[i], true
	}
	return VMA{}, false
}

func (s *Space) pathTo(i int) []mem.PAddr {
	depth := 1
	for n := s.fanout; n < len(s.vmas)+1; n *= s.fanout {
		depth++
	}
	path := make([]mem.PAddr, 0, depth)
	stride := 1
	for d := 0; d < depth; d++ {
		node := i / (stride * s.fanout)
		path = append(path, s.nodeBase+mem.PAddr(d)<<16+mem.PAddr(node*64))
		stride *= s.fanout
	}
	return path
}

// VMACount returns the number of live VMAs (Fig. 18's census).
func (s *Space) VMACount() int { return len(s.vmas) }
