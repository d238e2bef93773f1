package phys

import (
	"math/bits"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// refMem is the extent-map allocator Mem replaced, kept as the
// differential oracle for the bitmap allocator: free extents live in two
// maps (base -> length, end -> base) beside the free-page bitmap, and
// every split and coalesce edits them. It makes the same choices Mem
// must make and pushes the same candidate-stack entries, so a test can
// compare the two op by op.
type refMem struct {
	totalPages uint64

	free  map[uint64]uint64 // extent base page -> length in pages
	byEnd map[uint64]uint64 // extent end page (exclusive) -> base page

	bitmap []uint64 // bit p set = page p free

	smallStack []uint64 // candidate bases of extents with no aligned 2MB chunk
	largeStack []uint64 // candidate bases of extents with >= 1 aligned 2MB chunk

	freePages uint64
	free2M    uint64
	total2M   uint64
}

func newRef(totalBytes uint64) *refMem {
	pages := totalBytes / (4 * mem.KB)
	m := &refMem{
		totalPages: pages,
		free:       make(map[uint64]uint64),
		byEnd:      make(map[uint64]uint64),
		bitmap:     make([]uint64, (pages+63)/64),
		total2M:    pages / pagesPer2M,
	}
	m.insertExtent(0, pages)
	m.setRange(0, pages)
	return m
}

func (m *refMem) setRange(base, n uint64) {
	for n > 0 {
		w, off := base>>6, base&63
		span := min(64-off, n)
		m.bitmap[w] |= (^uint64(0) >> (64 - span)) << off
		base += span
		n -= span
	}
}

func (m *refMem) clearRange(base, n uint64) {
	for n > 0 {
		w, off := base>>6, base&63
		span := min(64-off, n)
		m.bitmap[w] &^= (^uint64(0) >> (64 - span)) << off
		base += span
		n -= span
	}
}

func (m *refMem) extentBase(p uint64) uint64 {
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

func (m *refMem) classify(base, pages uint64) {
	if aligned2MCount(base, pages) > 0 {
		m.largeStack = append(m.largeStack, base)
	} else {
		m.smallStack = append(m.smallStack, base)
	}
}

func (m *refMem) insertExtent(base, pages uint64) {
	if pages == 0 {
		return
	}
	m.free[base] = pages
	m.byEnd[base+pages] = base
	m.freePages += pages
	m.free2M += aligned2MCount(base, pages)
	m.classify(base, pages)
}

func (m *refMem) removeExtent(base uint64) uint64 {
	pages := m.free[base]
	delete(m.free, base)
	delete(m.byEnd, base+pages)
	m.freePages -= pages
	m.free2M -= aligned2MCount(base, pages)
	return pages
}

func (m *refMem) popSmall() (uint64, bool) {
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

func (m *refMem) popLarge() (uint64, bool) {
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

func (m *refMem) Alloc4K() (mem.PAddr, bool) {
	base, ok := m.popSmall()
	if !ok {
		if base, ok = m.popLarge(); !ok {
			return 0, false
		}
	}
	pages := m.removeExtent(base)
	m.insertExtent(base+1, pages-1)
	m.clearRange(base, 1)
	return pageAddr(base), true
}

func (m *refMem) Alloc2M() (mem.PAddr, bool) {
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

// AllocContig is lowest-base first fit. Map iteration order is
// randomized, so the loop compares bases instead of taking the first
// extent the map yields.
func (m *refMem) AllocContig(pages, alignPages uint64) (mem.PAddr, bool) {
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

// AllocLargestRange takes the longest extent, ties broken by lowest
// base.
func (m *refMem) AllocLargestRange(minPages, maxPages uint64) (mem.PAddr, uint64, bool) {
	var bestBase, bestLen uint64
	for base, length := range m.free {
		if length > bestLen || (length == bestLen && length > 0 && base < bestBase) {
			bestBase, bestLen = base, length
		}
	}
	if bestLen < minPages || bestLen == 0 {
		return 0, 0, false
	}
	take := min(bestLen, maxPages)
	m.removeExtent(bestBase)
	m.insertExtent(bestBase+take, bestLen-take)
	m.clearRange(bestBase, take)
	return pageAddr(bestBase), take, true
}

func (m *refMem) Free(pa mem.PAddr, pages uint64) {
	base := uint64(pa) >> 12
	if pages == 0 {
		return
	}
	m.setRange(base, pages)
	if pbase, ok := m.byEnd[base]; ok {
		plen := m.removeExtent(pbase)
		base = pbase
		pages += plen
	}
	if slen, ok := m.free[base+pages]; ok {
		m.removeExtent(base + pages)
		pages += slen
	}
	m.insertExtent(base, pages)
}

func (m *refMem) Fragment(targetFree2MFrac float64, seed uint64) {
	if targetFree2MFrac >= 1 {
		return
	}
	target := uint64(float64(m.total2M) * targetFree2MFrac)
	rng := xrand.New(seed)
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
	for blk := uint64(0); blk < m.total2M && m.free2M > target; blk++ {
		breakAt(blk*pagesPer2M + pagesPer2M/2)
	}
}

func (m *refMem) pageFree(p uint64) bool {
	return m.bitmap[p>>6]>>(p&63)&1 == 1
}

func (m *refMem) allocSpecific(p uint64) {
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
