// Package phys models the machine's physical memory and its allocators:
// a buddy-style page allocator over the full physical address space
// (with controllable 2 MB-block fragmentation, the key system-state
// variable in Figs. 13, 16, 21), a slab allocator for page-table frames
// and kernel objects (§5.1 step 2), and contiguity queries used by eager
// paging (RMM) and 1 GB allocations. The allocator's only record of
// free memory is a free-page bitmap with a free-page count per 2 MB
// block beside it; a free extent is a maximal run of set bits.
//
// Addresses handed out are real simulated physical addresses: page-table
// entries, kernel objects and application frames all land at distinct
// DRAM rows, so allocation policy visibly changes row-buffer behaviour —
// the dynamic effect first-order models miss (§8.1).
package phys

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

const pagesPer2M = 512
const pagesPer1G = 512 * 512

// Mem is the physical memory map. Free extents (in 4 KB page units)
// are the maximal runs of free pages in a bitmap: allocations leave
// allocated gaps between runs, and frees join runs just by setting
// bits. Two candidate stacks classify extent bases lazily as small (no
// aligned 2 MB block inside) or large, so 4 KB allocations prefer
// already-broken blocks (preserving 2 MB contiguity, as Linux's buddy
// does by splitting low orders first).
type Mem struct {
	totalPages uint64

	bitmap []uint64 // bit p set = page p free
	// blockFree counts the free pages of each 2 MB block (8 bitmap
	// words), so run scans step over a fully free or fully allocated
	// block at once and free2M moves without measuring extents.
	blockFree []uint64

	// Candidate extent bases, pushed when an allocation or free leaves
	// an extent starting there and checked again when popped.
	smallStack []uint64 // extents with no aligned 2MB block
	largeStack []uint64 // extents with >= 1 aligned 2MB block

	freePages uint64
	free2M    uint64 // fully free 2MB blocks
	total2M   uint64
}

// New builds a physical memory of totalBytes (must be 2 MB-aligned).
func New(totalBytes uint64) *Mem { return NewWith(totalBytes, nil) }

// stacksKey holds a recycled pair of candidate stacks in a pool; they
// come back truncated, so reuse is indistinguishable from fresh
// construction.
const stacksKey = "phys.stacks"

type stacks struct{ small, large []uint64 }

// NewWith is New drawing the bitmap, the block counts and the candidate
// stacks from pool (nil pool = plain New).
func NewWith(totalBytes uint64, pool *recycle.Pool) *Mem {
	if totalBytes == 0 || totalBytes%(2*mem.MB) != 0 {
		panic(fmt.Sprintf("phys: total bytes %d not 2MB-aligned", totalBytes))
	}
	pages := totalBytes / (4 * mem.KB)
	m := &Mem{
		totalPages: pages,
		bitmap:     pool.Uint64s(int(pages / 64)),
		blockFree:  pool.Uint64s(int(pages / pagesPer2M)),
		total2M:    pages / pagesPer2M,
	}
	if st, ok := pool.Take(stacksKey); ok {
		s := st.(*stacks)
		m.smallStack, m.largeStack = s.small, s.large
	}
	for i := range m.bitmap {
		m.bitmap[i] = ^uint64(0)
	}
	for i := range m.blockFree {
		m.blockFree[i] = pagesPer2M
	}
	m.freePages, m.free2M = pages, m.total2M
	m.push(0)
	return m
}

// Recycle harvests the memory map's large allocations into pool. The
// Mem must not be used afterwards.
func (m *Mem) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	pool.PutUint64s(m.bitmap)
	pool.PutUint64s(m.blockFree)
	pool.Give(stacksKey, &stacks{small: m.smallStack[:0], large: m.largeStack[:0]})
	m.bitmap, m.blockFree, m.smallStack, m.largeStack = nil, nil, nil, nil
}

// TotalBytes returns the physical memory size.
func (m *Mem) TotalBytes() uint64 { return m.totalPages * 4 * mem.KB }

// TotalPages returns the total number of 4 KB frames.
func (m *Mem) TotalPages() uint64 { return m.totalPages }

// FreePages returns the number of free 4 KB frames.
func (m *Mem) FreePages() uint64 { return m.freePages }

// FreeBytes returns the free capacity in bytes.
func (m *Mem) FreeBytes() uint64 { return m.freePages * 4 * mem.KB }

// UsedFraction returns the fraction of physical memory allocated.
func (m *Mem) UsedFraction() float64 {
	return 1 - float64(m.freePages)/float64(m.totalPages)
}

// Free2MBlocks returns the number of free, naturally aligned 2 MB blocks.
func (m *Mem) Free2MBlocks() uint64 { return m.free2M }

// Total2MBlocks returns the total number of 2 MB blocks in memory.
func (m *Mem) Total2MBlocks() uint64 { return m.total2M }

// FragmentationLevel returns free 2 MB blocks / total 2 MB blocks — the
// paper's §7.4 definition of memory fragmentation level (100% = fully
// unfragmented).
func (m *Mem) FragmentationLevel() float64 {
	return float64(m.free2M) / float64(m.total2M)
}

// setRange marks the allocated pages [base, base+n) free.
func (m *Mem) setRange(base, n uint64) {
	m.freePages += n
	for n > 0 {
		w, off := base>>6, base&63
		span := min(64-off, n)
		m.bitmap[w] |= (^uint64(0) >> (64 - span)) << off
		m.blockFree[w>>3] += span
		if m.blockFree[w>>3] == pagesPer2M {
			m.free2M++
		}
		base += span
		n -= span
	}
}

// clearRange marks the free pages [base, base+n) allocated.
func (m *Mem) clearRange(base, n uint64) {
	m.freePages -= n
	for n > 0 {
		w, off := base>>6, base&63
		span := min(64-off, n)
		m.bitmap[w] &^= (^uint64(0) >> (64 - span)) << off
		if m.blockFree[w>>3] == pagesPer2M {
			m.free2M--
		}
		m.blockFree[w>>3] -= span
		base += span
		n -= span
	}
}

// pageFree reports whether page number p is free.
func (m *Mem) pageFree(p uint64) bool {
	return m.bitmap[p>>6]>>(p&63)&1 == 1
}

// rangeFree reports whether every page in [lo, hi) is free.
func (m *Mem) rangeFree(lo, hi uint64) bool {
	for lo < hi {
		w, off := lo>>6, lo&63
		span := min(64-off, hi-lo)
		mask := (^uint64(0) >> (64 - span)) << off
		if m.bitmap[w]&mask != mask {
			return false
		}
		lo += span
	}
	return true
}

// extentBase returns the base of the free extent covering page p, which
// must be free: one past the nearest allocated page below p.
func (m *Mem) extentBase(p uint64) uint64 {
	w := p >> 6
	word := ^m.bitmap[w] & (^uint64(0) >> (63 - p&63))
	for word == 0 {
		if w == 0 {
			return 0
		}
		w--
		if b := w >> 3; w&7 == 7 && m.blockFree[b] == pagesPer2M {
			for b > 0 && m.blockFree[b-1] == pagesPer2M {
				b--
			}
			w = b << 3 // the lowest of the fully free blocks below
			continue
		}
		word = ^m.bitmap[w]
	}
	return w<<6 + uint64(bits.Len64(word))
}

// next returns the lowest page at or above p that is free (free = true)
// or allocated, or the end of memory, stepping over the blocks that
// hold no such page at once. On a free p, next(p, false) is the end of
// p's extent.
func (m *Mem) next(p uint64, free bool) uint64 {
	if p >= m.totalPages {
		return m.totalPages
	}
	flip, none := ^uint64(0), uint64(pagesPer2M) // looking for allocated pages
	if free {
		flip, none = 0, 0
	}
	w := p >> 6
	word := (m.bitmap[w] ^ flip) & (^uint64(0) << (p & 63))
	for word == 0 {
		w++
		if w == uint64(len(m.bitmap)) {
			return m.totalPages
		}
		if b := w >> 3; w&7 == 0 && m.blockFree[b] == none {
			for b+1 < m.total2M && m.blockFree[b+1] == none {
				b++
			}
			w = b<<3 | 7 // the last of the blocks stepped over
			continue
		}
		word = m.bitmap[w] ^ flip
	}
	return w<<6 + uint64(bits.TrailingZeros64(word))
}

// runs yields every free extent [base, end) in address order.
func (m *Mem) runs(yield func(base, end uint64) bool) {
	for base := m.next(0, true); base < m.totalPages; {
		end := m.next(base, false)
		if !yield(base, end) {
			return
		}
		base = m.next(end, true)
	}
}

// large reports whether the free extent starting at base holds an
// aligned 2 MB block: the first one at or above base is fully free and
// so is everything from base up to it.
func (m *Mem) large(base uint64) bool {
	head := mem.AlignUp(base, pagesPer2M)
	return head < m.totalPages && m.blockFree[head/pagesPer2M] == pagesPer2M &&
		m.rangeFree(base, head)
}

// push records a free extent starting at base, if there is one, on the
// candidate stack of its class. Allocations call it after clearing
// their pages, on the bases a split leaves; frees on the joined extent.
func (m *Mem) push(base uint64) {
	if base >= m.totalPages || !m.pageFree(base) {
		return
	}
	if m.large(base) {
		m.largeStack = append(m.largeStack, base)
	} else {
		m.smallStack = append(m.smallStack, base)
	}
}

// pop returns the topmost base on stack at which a free extent of the
// stack's class still starts, dropping the stale entries above it.
func (m *Mem) pop(stack *[]uint64, large bool) (uint64, bool) {
	s := *stack
	for len(s) > 0 {
		base := s[len(s)-1]
		s = s[:len(s)-1]
		if m.pageFree(base) && (base == 0 || !m.pageFree(base-1)) && m.large(base) == large {
			*stack = s
			return base, true
		}
	}
	*stack = s
	return 0, false
}

// Alloc4K allocates one 4 KB frame, preferring fragments of already
// broken 2 MB blocks.
func (m *Mem) Alloc4K() (mem.PAddr, bool) {
	base, ok := m.pop(&m.smallStack, false)
	if !ok {
		if base, ok = m.pop(&m.largeStack, true); !ok {
			return 0, false
		}
	}
	m.clearRange(base, 1)
	m.push(base + 1)
	return pageAddr(base), true
}

// Alloc2M allocates one naturally aligned 2 MB block.
func (m *Mem) Alloc2M() (mem.PAddr, bool) {
	base, ok := m.pop(&m.largeStack, true)
	if !ok {
		return 0, false
	}
	head := mem.AlignUp(base, pagesPer2M)
	m.clearRange(head, pagesPer2M)
	m.push(base)
	m.push(head + pagesPer2M)
	return pageAddr(head), true
}

// Alloc1G allocates one naturally aligned 1 GB block, if any extent
// contains one.
func (m *Mem) Alloc1G() (mem.PAddr, bool) {
	return m.AllocContig(pagesPer1G, pagesPer1G)
}

// AllocContig allocates pages contiguous frames aligned to alignPages
// from the lowest-addressed free extent that fits them. Used for 1 GB
// pages, RestSeg carve-outs, and hash page-table regions.
func (m *Mem) AllocContig(pages, alignPages uint64) (mem.PAddr, bool) {
	if pages == 0 {
		return 0, false
	}
	if alignPages == 0 {
		alignPages = 1
	}
	for base, end := range m.runs {
		if head := mem.AlignUp(base, alignPages); head+pages <= end {
			m.clearRange(head, pages)
			m.push(base)
			m.push(head + pages)
			return pageAddr(head), true
		}
	}
	return 0, false
}

// AllocLargestRange allocates the largest contiguous free range of at
// most maxPages frames (at least minPages), returning its base and length.
// This is the eager-paging primitive of RMM (§7.6.3): allocate the biggest
// available contiguous chunk for a growing VMA. Of equally long extents
// the lowest-addressed one is taken.
func (m *Mem) AllocLargestRange(minPages, maxPages uint64) (mem.PAddr, uint64, bool) {
	var bestBase, bestLen uint64
	for base, end := range m.runs {
		if end-base > bestLen {
			bestBase, bestLen = base, end-base
		}
	}
	if bestLen < minPages || bestLen == 0 {
		return 0, 0, false
	}
	take := min(bestLen, maxPages)
	m.clearRange(bestBase, take)
	m.push(bestBase + take)
	return pageAddr(bestBase), take, true
}

// Free returns pages frames starting at pa to the free pool, where they
// join any free extent next to them.
func (m *Mem) Free(pa mem.PAddr, pages uint64) {
	if pages == 0 {
		return
	}
	base := uint64(pa) >> 12
	m.setRange(base, pages)
	m.push(m.extentBase(base))
}

// Fragment consumes free 2 MB blocks until the fragmentation level
// (free 2 MB blocks / total) drops to targetFree2MFrac, by allocating a
// single 4 KB page in the middle of pseudo-randomly chosen blocks — the
// cheapest realistic way a long-running system loses huge-page
// contiguity. Deterministic in seed.
func (m *Mem) Fragment(targetFree2MFrac float64, seed uint64) {
	if targetFree2MFrac >= 1 {
		return
	}
	target := uint64(float64(m.total2M) * targetFree2MFrac)
	rng := xrand.New(seed)
	// breakAt breaks the block around mid, if it is free; when the block
	// was already broken the page goes back.
	breakAt := func(mid uint64) {
		if !m.pageFree(mid) {
			return
		}
		before := m.free2M
		m.allocSpecific(mid)
		if m.free2M == before {
			m.Free(pageAddr(mid), 1)
		}
	}
	for guard := m.total2M * 4; m.free2M > target && guard > 0; guard-- {
		breakAt(rng.Uint64n(m.total2M)*pagesPer2M + pagesPer2M/2)
	}
	// Deterministic sweep for very low targets, where random probing
	// rarely finds the remaining free blocks.
	for blk := uint64(0); blk < m.total2M && m.free2M > target; blk++ {
		breakAt(blk*pagesPer2M + pagesPer2M/2)
	}
}

// allocSpecific allocates exactly page p, if it is free.
func (m *Mem) allocSpecific(p uint64) {
	if !m.pageFree(p) {
		return
	}
	base := m.extentBase(p)
	m.clearRange(p, 1)
	m.push(base)
	m.push(p + 1)
}

func pageAddr(page uint64) mem.PAddr { return mem.PAddr(page << 12) }
