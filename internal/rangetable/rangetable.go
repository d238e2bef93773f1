// Package rangetable is the per-process range table of the range-based
// translation designs. Redundant Memory Mappings (Karakostas et al.,
// ISCA'15; Use Case 5, §7.6.3, Fig. 21) map each range of a VMA to a
// contiguous physical range, which the OS allocates eagerly. Midgard
// (Gupta et al., ISCA'21; Use Case 3, §7.6.1, Figs. 17, 18) maps each
// VMA to a range of its intermediate Midgard address (MA) space. Both
// keep the ranges in a B-tree in kernel memory (Table 4: "B+ Tree to
// store ranges"), which a hardware walker reads on a lookaside-buffer
// miss.
package rangetable

import (
	"sort"

	"repro/internal/instrument"
	"repro/internal/mem"
)

// Range maps [VStart, VEnd) linearly onto the range starting at Base: a
// physical address under RMM, a Midgard address under Midgard.
type Range struct {
	VStart mem.VAddr
	VEnd   mem.VAddr
	Base   mem.PAddr
}

// Translate applies the range to va.
func (r Range) Translate(va mem.VAddr) mem.PAddr { return r.Base + mem.PAddr(va-r.VStart) }

// Contains reports whether va is inside the range.
func (r Range) Contains(va mem.VAddr) bool { return va >= r.VStart && va < r.VEnd }

// fanout is the B-tree's node fanout.
const fanout = 8

// Table is a per-process range table. The Go-side representation is a
// slice sorted by start address; node addresses are synthesised so that
// walks charge log-many translation-metadata accesses.
type Table struct {
	ranges []Range
	// nodeBase is the kernel region holding the B-tree nodes; the root
	// is its first line.
	nodeBase mem.PAddr
}

// New builds an empty range table whose nodes live at nodeBase.
func New(nodeBase mem.PAddr) *Table { return &Table{nodeBase: nodeBase} }

// Root returns the address of the root node.
func (t *Table) Root() mem.PAddr { return t.nodeBase }

// Insert adds r, keeping the table sorted, charges k the loads of the
// B-tree descent to r's slot, and returns the slot. The caller charges
// the node store and the update's bookkeeping.
func (t *Table) Insert(r Range, k instrument.KernelMem) int {
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].VStart >= r.VStart })
	t.ranges = append(t.ranges, Range{})
	copy(t.ranges[i+1:], t.ranges[i:])
	t.ranges[i] = r
	var buf [8]mem.PAddr
	for _, pa := range t.appendPath(buf[:0], i) {
		k.Load(pa)
	}
	return i
}

// LeafPA returns the address of the leaf node holding slot i.
func (t *Table) LeafPA(i int) mem.PAddr {
	return t.nodeBase + mem.PAddr(i/fanout*64)
}

// Remove deletes the ranges overlapping [start, end) and returns how
// many it deleted.
func (t *Table) Remove(start, end mem.VAddr, k instrument.KernelMem) int {
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

// Find locates the range containing va. A non-nil steps receives the
// B-tree node addresses a hardware range walker touches (translation
// metadata, attributed as mem.ATTransMeta by the MMU).
func (t *Table) Find(va mem.VAddr, steps *[]mem.PAddr) (Range, bool) {
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].VEnd > va })
	if steps != nil {
		*steps = t.appendPath(*steps, i)
	}
	if i < len(t.ranges) && t.ranges[i].Contains(va) {
		return t.ranges[i], true
	}
	return Range{}, false
}

// appendPath appends the node addresses on the root-to-leaf path to the
// leaf holding slot i.
func (t *Table) appendPath(dst []mem.PAddr, i int) []mem.PAddr {
	depth := 1
	for n := fanout; n < len(t.ranges)+1; n *= fanout {
		depth++
	}
	stride := 1
	for d := 0; d < depth; d++ {
		node := i / (stride * fanout)
		dst = append(dst, t.nodeBase+mem.PAddr(d)<<16+mem.PAddr(node*64))
		stride *= fanout
	}
	return dst
}
