package rangetable

import (
	"sort"

	"repro/internal/mem"
)

// The range tables as they were before this package replaced them: RMM's
// Table and Midgard's Space, kept verbatim apart from their names as the
// references for TestTableMatchesReference and FuzzRangeTable.

// refRange is one contiguous virtual-to-physical mapping.
type refRange struct {
	VStart mem.VAddr
	VEnd   mem.VAddr
	PBase  mem.PAddr
}

// Translate applies the range to va.
func (r refRange) Translate(va mem.VAddr) mem.PAddr { return r.PBase + mem.PAddr(va-r.VStart) }

// Contains reports whether va is inside the range.
func (r refRange) Contains(va mem.VAddr) bool { return va >= r.VStart && va < r.VEnd }

// refKernelMem is the subset of the instrumentation interface the range
// table needs to report its kernel-side accesses.
type refKernelMem interface {
	Load(pa mem.PAddr)
	Store(pa mem.PAddr)
	ALU(n uint32)
}

// refTable is a per-process range table, stored as a B-tree in kernel
// memory (refTable 4: "B+ Tree to store ranges"). The Go-side representation
// is a sorted slice; node addresses are synthesised so that walks charge
// log-many translation-metadata accesses.
type refTable struct {
	ranges []refRange
	// nodeBase is the kernel region holding the B-tree nodes.
	nodeBase mem.PAddr
	fanout   int

	Walks     uint64
	WalkSteps uint64
}

// newRefTable builds an empty range table whose nodes live at nodeBase.
func newRefTable(nodeBase mem.PAddr) *refTable {
	return &refTable{nodeBase: nodeBase, fanout: 8}
}

// Len returns the number of ranges.
func (t *refTable) Len() int { return len(t.ranges) }

// Ranges returns the ranges sorted by start address (not to be modified).
func (t *refTable) Ranges() []refRange { return t.ranges }

// Insert adds a range, keeping the table sorted; k records the B-tree
// update accesses.
func (t *refTable) Insert(r refRange, k refKernelMem) {
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].VStart >= r.VStart })
	t.ranges = append(t.ranges, refRange{})
	copy(t.ranges[i+1:], t.ranges[i:])
	t.ranges[i] = r
	// B-tree insert: descend + split bookkeeping.
	for _, pa := range t.pathTo(i) {
		k.Load(pa)
	}
	k.Store(t.leafPA(i))
	k.ALU(32)
}

// Remove deletes ranges overlapping [start, end).
func (t *refTable) Remove(start, end mem.VAddr, k refKernelMem) int {
	kept := t.ranges[:0]
	removed := 0
	for _, r := range t.ranges {
		if r.VStart < end && start < r.VEnd {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	t.ranges = kept
	if removed > 0 {
		k.Store(t.nodeBase)
		k.ALU(uint32(16 * removed))
	}
	return removed
}

// Find locates the range containing va. steps receives the physical
// addresses of the B-tree nodes a hardware range walker touches
// (translation metadata; attributed as mem.ATTransMeta by the MMU).
func (t *refTable) Find(va mem.VAddr, steps *[]mem.PAddr) (refRange, bool) {
	t.Walks++
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].VEnd > va })
	for _, pa := range t.pathTo(i) {
		if steps != nil {
			*steps = append(*steps, pa)
		}
		t.WalkSteps++
	}
	if i < len(t.ranges) && t.ranges[i].Contains(va) {
		return t.ranges[i], true
	}
	return refRange{}, false
}

// pathTo returns the node addresses on the root-to-leaf path for the
// leaf holding index i.
func (t *refTable) pathTo(i int) []mem.PAddr {
	depth := 1
	for n := t.fanout; n < len(t.ranges)+1; n *= t.fanout {
		depth++
	}
	path := make([]mem.PAddr, 0, depth)
	stride := 1
	for d := 0; d < depth; d++ {
		node := i / (stride * t.fanout)
		path = append(path, t.nodeBase+mem.PAddr(d)<<16+mem.PAddr(node*64))
		stride *= t.fanout
	}
	return path
}

func (t *refTable) leafPA(i int) mem.PAddr {
	return t.nodeBase + mem.PAddr(i/t.fanout*64)
}

// TotalCoveredBytes returns the bytes covered by all ranges.
func (t *refTable) TotalCoveredBytes() uint64 {
	var b uint64
	for _, r := range t.ranges {
		b += uint64(r.VEnd - r.VStart)
	}
	return b
}

// refMAddr is a Midgard (intermediate) address.
type refMAddr uint64

// refVMA is one virtual memory area mapped into the Midgard space: VA range
// [VStart, VEnd) maps linearly to MA range starting at MBase.
type refVMA struct {
	VStart mem.VAddr
	VEnd   mem.VAddr
	MBase  refMAddr
}

// Translate maps va into the Midgard space.
func (v refVMA) Translate(va mem.VAddr) refMAddr { return v.MBase + refMAddr(va-v.VStart) }

// Contains reports whether va is inside the refVMA.
func (v refVMA) Contains(va mem.VAddr) bool { return va >= v.VStart && va < v.VEnd }

// refSpace is the per-process Midgard state: the refVMA tree (frontend) and
// the allocation cursor of the MA space. The backend Midgard→physical
// page table is owned by the MMU design (it is hardware-walked).
type refSpace struct {
	vmas     []refVMA
	nextMA   refMAddr
	nodeBase mem.PAddr // kernel B-tree nodes for the frontend walk
	fanout   int

	FrontendWalks uint64
	WalkSteps     uint64
}

// newRefSpace builds an empty Midgard space with frontend tree nodes at
// nodeBase.
func newRefSpace(nodeBase mem.PAddr) *refSpace {
	return &refSpace{nextMA: 1 << 30, nodeBase: nodeBase, fanout: 8}
}

// AddVMA maps [start, end) into a fresh MA range and returns the refVMA.
func (s *refSpace) AddVMA(start, end mem.VAddr, k refKernelMem) refVMA {
	v := refVMA{VStart: start, VEnd: end, MBase: s.nextMA}
	s.nextMA += refMAddr(mem.AlignUp(uint64(end-start), 2*mem.MB)) + 2*mem.MB
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].VStart >= start })
	s.vmas = append(s.vmas, refVMA{})
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
func (s *refSpace) RemoveVMA(start, end mem.VAddr, k refKernelMem) int {
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

// Find locates the refVMA containing va; steps receives the frontend
// B-tree node addresses the hardware refVMA walker touches on a VLB miss.
func (s *refSpace) Find(va mem.VAddr, steps *[]mem.PAddr) (refVMA, bool) {
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
	return refVMA{}, false
}

func (s *refSpace) pathTo(i int) []mem.PAddr {
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
func (s *refSpace) VMACount() int { return len(s.vmas) }
