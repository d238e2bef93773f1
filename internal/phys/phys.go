// Package phys models the machine's physical memory and its allocators:
// an extent-based buddy-style allocator over the full physical address
// space (with controllable 2 MB-block fragmentation, the key system-state
// variable in Figs. 13, 16, 21), a slab allocator for page-table frames
// and kernel objects (§5.1 step 2), and contiguity queries used by eager
// paging (RMM) and 1 GB allocations.
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

// Mem is the physical memory map: a set of free extents (in 4 KB page
// units) with lazily maintained small/large classification so 4 KB
// allocations prefer already-broken blocks (preserving 2 MB contiguity,
// as Linux's buddy does by splitting low orders first).
type Mem struct {
	totalPages uint64
	basePage   uint64 // first allocatable page number

	free  map[uint64]uint64 // extent base page -> length in pages
	byEnd map[uint64]uint64 // extent end page (exclusive) -> base page

	// bitmap mirrors free-page membership (bit p set = page p free) so
	// point queries (pageFree, allocSpecific) cost O(1) instead of
	// scanning the extent maps. Maintained at the allocation and free
	// sites — extent splits and coalescing don't change page state, so
	// insertExtent/removeExtent leave it alone.
	bitmap []uint64

	smallStack []uint64 // candidate bases of extents with no aligned 2MB chunk
	largeStack []uint64 // candidate bases of extents with >= 1 aligned 2MB chunk

	freePages uint64
	free2M    uint64 // aligned free 2MB chunks
	total2M   uint64
}

// New builds a physical memory of totalBytes (must be 2 MB-aligned).
func New(totalBytes uint64) *Mem { return NewWith(totalBytes, nil) }

// extentsKey holds the recycled extent-map/candidate-stack bundle in a
// pool; the maps come back cleared and the stacks truncated, so reuse
// is indistinguishable from fresh construction.
const extentsKey = "phys.extents"

type extentState struct {
	free, byEnd  map[uint64]uint64
	small, large []uint64
}

// NewWith is New drawing the free-page bitmap and extent maps from
// pool (nil pool = plain New).
func NewWith(totalBytes uint64, pool *recycle.Pool) *Mem {
	if totalBytes == 0 || totalBytes%(2*mem.MB) != 0 {
		panic(fmt.Sprintf("phys: total bytes %d not 2MB-aligned", totalBytes))
	}
	pages := totalBytes / (4 * mem.KB)
	m := &Mem{
		totalPages: pages,
		bitmap:     pool.Uint64s(int((pages + 63) / 64)),
		total2M:    pages / pagesPer2M,
	}
	if st, ok := pool.Take(extentsKey); ok {
		e := st.(*extentState)
		m.free, m.byEnd = e.free, e.byEnd
		m.smallStack, m.largeStack = e.small, e.large
	} else {
		m.free = make(map[uint64]uint64)
		m.byEnd = make(map[uint64]uint64)
	}
	m.insertExtent(0, pages)
	m.setRange(0, pages)
	return m
}

// Recycle harvests the memory map's large allocations into pool. The
// Mem must not be used afterwards.
func (m *Mem) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	pool.PutUint64s(m.bitmap)
	clear(m.free)
	clear(m.byEnd)
	pool.Give(extentsKey, &extentState{
		free: m.free, byEnd: m.byEnd,
		small: m.smallStack[:0], large: m.largeStack[:0],
	})
	m.bitmap, m.free, m.byEnd, m.smallStack, m.largeStack = nil, nil, nil, nil, nil
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

// setRange marks pages [base, base+n) free in the bitmap.
func (m *Mem) setRange(base, n uint64) {
	for n > 0 {
		w, off := base>>6, base&63
		span := 64 - off
		if span > n {
			span = n
		}
		m.bitmap[w] |= (^uint64(0) >> (64 - span)) << off
		base += span
		n -= span
	}
}

// clearRange marks pages [base, base+n) allocated in the bitmap.
func (m *Mem) clearRange(base, n uint64) {
	for n > 0 {
		w, off := base>>6, base&63
		span := 64 - off
		if span > n {
			span = n
		}
		m.bitmap[w] &^= (^uint64(0) >> (64 - span)) << off
		base += span
		n -= span
	}
}

// extentBase returns the base of the free extent covering page p, which
// must be free. Free extents are maximal (splits leave allocated gaps,
// Free coalesces), so the base is one past the nearest allocated page
// below p — found by scanning bitmap words, not the extent maps.
func (m *Mem) extentBase(p uint64) uint64 {
	w := p >> 6
	word := ^m.bitmap[w] & (^uint64(0) >> (63 - p&63))
	for word == 0 {
		if w == 0 {
			return 0
		}
		w--
		word = ^m.bitmap[w]
	}
	return w<<6 + uint64(bits.Len64(word))
}

func aligned2MCount(base, pages uint64) uint64 {
	head := mem.AlignUp(base, pagesPer2M)
	end := base + pages
	if head+pagesPer2M > end {
		return 0
	}
	return (end - head) / pagesPer2M
}

func (m *Mem) classify(base, pages uint64) {
	if aligned2MCount(base, pages) > 0 {
		m.largeStack = append(m.largeStack, base)
	} else {
		m.smallStack = append(m.smallStack, base)
	}
}

func (m *Mem) insertExtent(base, pages uint64) {
	if pages == 0 {
		return
	}
	m.free[base] = pages
	m.byEnd[base+pages] = base
	m.freePages += pages
	m.free2M += aligned2MCount(base, pages)
	m.classify(base, pages)
}

func (m *Mem) removeExtent(base uint64) uint64 {
	pages := m.free[base]
	delete(m.free, base)
	delete(m.byEnd, base+pages)
	m.freePages -= pages
	m.free2M -= aligned2MCount(base, pages)
	return pages
}

// popSmall returns a valid small-extent base, or false.
func (m *Mem) popSmall() (uint64, bool) {
	for len(m.smallStack) > 0 {
		base := m.smallStack[len(m.smallStack)-1]
		m.smallStack = m.smallStack[:len(m.smallStack)-1]
		pages, ok := m.free[base]
		if ok && aligned2MCount(base, pages) == 0 {
			return base, true
		}
	}
	return 0, false
}

// popLarge returns a valid large-extent base, or false.
func (m *Mem) popLarge() (uint64, bool) {
	for len(m.largeStack) > 0 {
		base := m.largeStack[len(m.largeStack)-1]
		m.largeStack = m.largeStack[:len(m.largeStack)-1]
		pages, ok := m.free[base]
		if ok && aligned2MCount(base, pages) > 0 {
			return base, true
		}
	}
	return 0, false
}

// Alloc4K allocates one 4 KB frame, preferring fragments of already
// broken 2 MB blocks.
func (m *Mem) Alloc4K() (mem.PAddr, bool) {
	if base, ok := m.popSmall(); ok {
		pages := m.removeExtent(base)
		m.insertExtent(base+1, pages-1)
		m.clearRange(base, 1)
		return pageAddr(base), true
	}
	if base, ok := m.popLarge(); ok {
		pages := m.removeExtent(base)
		m.insertExtent(base+1, pages-1) // breaks one 2MB block
		m.clearRange(base, 1)
		return pageAddr(base), true
	}
	return 0, false
}

// Alloc2M allocates one naturally aligned 2 MB block.
func (m *Mem) Alloc2M() (mem.PAddr, bool) {
	base, ok := m.popLarge()
	if !ok {
		return 0, false
	}
	pages := m.removeExtent(base)
	head := mem.AlignUp(base, pagesPer2M)
	m.insertExtent(base, head-base)
	m.insertExtent(head+pagesPer2M, base+pages-(head+pagesPer2M))
	m.clearRange(head, pagesPer2M)
	return pageAddr(head), true
}

// Alloc1G allocates one naturally aligned 1 GB block, if any extent
// contains one.
func (m *Mem) Alloc1G() (mem.PAddr, bool) {
	return m.AllocContig(pagesPer1G, pagesPer1G)
}

// AllocContig allocates pages contiguous frames aligned to alignPages,
// scanning all free extents for the lowest-addressed fit. Used for 1 GB
// pages, RestSeg carve-outs, and hash page-table regions. Address-order
// first fit — not take-whatever-the-map-yields-first — because map
// iteration order is randomized: when several extents fit (an ECH
// resize against a fragmented free map, mid-run), the choice must be a
// pure function of the allocator state or simulations stop being
// reproducible.
func (m *Mem) AllocContig(pages, alignPages uint64) (mem.PAddr, bool) {
	if pages == 0 {
		return 0, false
	}
	if alignPages == 0 {
		alignPages = 1
	}
	var bestBase, bestLen uint64
	found := false
	for base, length := range m.free {
		head := mem.AlignUp(base, alignPages)
		if head+pages <= base+length && (!found || base < bestBase) {
			bestBase, bestLen = base, length
			found = true
		}
	}
	if !found {
		return 0, false
	}
	head := mem.AlignUp(bestBase, alignPages)
	m.removeExtent(bestBase)
	m.insertExtent(bestBase, head-bestBase)
	m.insertExtent(head+pages, bestBase+bestLen-(head+pages))
	m.clearRange(head, pages)
	return pageAddr(head), true
}

// AllocLargestRange allocates the largest contiguous free range of at
// most maxPages frames (at least minPages), returning its base and length.
// This is the eager-paging primitive of RMM (§7.6.3): allocate the biggest
// available contiguous chunk for a growing VMA.
func (m *Mem) AllocLargestRange(minPages, maxPages uint64) (mem.PAddr, uint64, bool) {
	// Ties broken by lowest base: map iteration order is randomized and
	// must never decide which frames an allocation gets.
	var bestBase, bestLen uint64
	for base, length := range m.free {
		if length > bestLen || (length == bestLen && length > 0 && base < bestBase) {
			bestBase, bestLen = base, length
		}
	}
	if bestLen < minPages || bestLen == 0 {
		return 0, 0, false
	}
	take := bestLen
	if take > maxPages {
		take = maxPages
	}
	m.removeExtent(bestBase)
	m.insertExtent(bestBase+take, bestLen-take)
	m.clearRange(bestBase, take)
	return pageAddr(bestBase), take, true
}

// Free returns pages frames starting at pa to the free pool, coalescing
// with adjacent extents.
func (m *Mem) Free(pa mem.PAddr, pages uint64) {
	base := uint64(pa) >> 12
	if pages == 0 {
		return
	}
	m.setRange(base, pages)
	// Coalesce with predecessor.
	if pbase, ok := m.byEnd[base]; ok {
		plen := m.removeExtent(pbase)
		base = pbase
		pages += plen
	}
	// Coalesce with successor.
	if slen, ok := m.free[base+pages]; ok {
		m.removeExtent(base + pages)
		pages += slen
	}
	m.insertExtent(base, pages)
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
	guard := m.total2M * 4
	for m.free2M > target && guard > 0 {
		guard--
		// Pick a random 2MB block; break it if it is currently free.
		blk := rng.Uint64n(m.total2M)
		head := blk * pagesPer2M
		mid := head + pagesPer2M/2
		if !m.pageFree(mid) {
			continue
		}
		before := m.free2M
		m.allocSpecific(mid)
		if m.free2M == before {
			// The block was already broken; return the page.
			m.Free(pageAddr(mid), 1)
		}
	}
	// Deterministic sweep for very low targets, where random probing
	// rarely finds the remaining free blocks.
	for blk := uint64(0); blk < m.total2M && m.free2M > target; blk++ {
		mid := blk*pagesPer2M + pagesPer2M/2
		if !m.pageFree(mid) {
			continue
		}
		before := m.free2M
		m.allocSpecific(mid)
		if m.free2M == before {
			m.Free(pageAddr(mid), 1)
		}
	}
}

// pageFree reports whether page number p lies inside a free extent.
func (m *Mem) pageFree(p uint64) bool {
	return m.bitmap[p>>6]>>(p&63)&1 == 1
}

// allocSpecific removes exactly page p from whichever extent covers it.
func (m *Mem) allocSpecific(p uint64) {
	if !m.pageFree(p) {
		return
	}
	cbase := m.extentBase(p)
	clen := m.free[cbase]
	m.removeExtent(cbase)
	m.insertExtent(cbase, p-cbase)
	m.insertExtent(p+1, cbase+clen-(p+1))
	m.clearRange(p, 1)
}

func pageAddr(page uint64) mem.PAddr { return mem.PAddr(page << 12) }
