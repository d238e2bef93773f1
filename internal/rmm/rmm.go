// Package rmm implements Redundant Memory Mappings (Karakostas et al.,
// ISCA'15), the contiguity-aware translation scheme of Use Case 5
// (§7.6.3, Fig. 21): the OS eagerly allocates large contiguous physical
// ranges for growing VMAs, and a per-process range table — walked by a
// hardware range walker and cached in the range lookaside buffer (RLB) —
// translates any address inside a range with a single base+offset
// computation, redundant with the conventional page table.
package rmm

import (
	"sort"

	"repro/internal/mem"
)

// Range is one contiguous virtual-to-physical mapping.
type Range struct {
	VStart mem.VAddr
	VEnd   mem.VAddr
	PBase  mem.PAddr
}

// Translate applies the range to va.
func (r Range) Translate(va mem.VAddr) mem.PAddr { return r.PBase + mem.PAddr(va-r.VStart) }

// Contains reports whether va is inside the range.
func (r Range) Contains(va mem.VAddr) bool { return va >= r.VStart && va < r.VEnd }

// KernelMem is the subset of the instrumentation interface the range
// table needs to report its kernel-side accesses.
type KernelMem interface {
	Load(pa mem.PAddr)
	Store(pa mem.PAddr)
	ALU(n uint32)
}

// Table is a per-process range table, stored as a B-tree in kernel
// memory (Table 4: "B+ Tree to store ranges"). The Go-side representation
// is a sorted slice; node addresses are synthesised so that walks charge
// log-many translation-metadata accesses.
type Table struct {
	ranges []Range
	// nodeBase is the kernel region holding the B-tree nodes.
	nodeBase mem.PAddr
	fanout   int

	Walks     uint64
	WalkSteps uint64
}

// NewTable builds an empty range table whose nodes live at nodeBase.
func NewTable(nodeBase mem.PAddr) *Table {
	return &Table{nodeBase: nodeBase, fanout: 8}
}

// Len returns the number of ranges.
func (t *Table) Len() int { return len(t.ranges) }

// Ranges returns the ranges sorted by start address (not to be modified).
func (t *Table) Ranges() []Range { return t.ranges }

// Insert adds a range, keeping the table sorted; k records the B-tree
// update accesses.
func (t *Table) Insert(r Range, k KernelMem) {
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].VStart >= r.VStart })
	t.ranges = append(t.ranges, Range{})
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
func (t *Table) Remove(start, end mem.VAddr, k KernelMem) int {
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
func (t *Table) Find(va mem.VAddr, steps *[]mem.PAddr) (Range, bool) {
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
	return Range{}, false
}

// pathTo returns the node addresses on the root-to-leaf path for the
// leaf holding index i.
func (t *Table) pathTo(i int) []mem.PAddr {
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

func (t *Table) leafPA(i int) mem.PAddr {
	return t.nodeBase + mem.PAddr(i/t.fanout*64)
}

// TotalCoveredBytes returns the bytes covered by all ranges.
func (t *Table) TotalCoveredBytes() uint64 {
	var b uint64
	for _, r := range t.ranges {
		b += uint64(r.VEnd - r.VStart)
	}
	return b
}
