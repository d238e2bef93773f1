package tlb

import (
	"repro/internal/mem"
	"repro/internal/rangetable"
)

// RangeTLB is a fully associative cache of range translations: the
// 64-entry range lookaside buffer (RLB) of RMM (Table 4: 9-cycle, probed
// in parallel with the L2 TLB) and the VMA lookaside buffers (VLBs) of
// Midgard reuse this structure.
type RangeTLB struct {
	latency uint64
	lines   []rangeLine
	tick    uint64
}

type rangeLine struct {
	r     rangetable.Range
	asid  uint16
	valid bool
	lru   uint64
}

// NewRangeTLB builds a fully associative range TLB.
func NewRangeTLB(entries int, latency uint64) *RangeTLB {
	return &RangeTLB{latency: latency, lines: make([]rangeLine, entries)}
}

// Latency returns the lookup latency in cycles.
func (t *RangeTLB) Latency() uint64 { return t.latency }

// Lookup returns asid's range covering va.
func (t *RangeTLB) Lookup(va mem.VAddr, asid uint16) (rangetable.Range, bool) {
	t.tick++
	for i := range t.lines {
		ln := &t.lines[i]
		if ln.valid && ln.asid == asid && ln.r.Contains(va) {
			ln.lru = t.tick
			return ln.r, true
		}
	}
	return rangetable.Range{}, false
}

// Insert fills asid's range r (LRU replacement).
func (t *RangeTLB) Insert(r rangetable.Range, asid uint16) {
	t.tick++
	victim := 0
	oldest := ^uint64(0)
	for i := range t.lines {
		ln := &t.lines[i]
		if ln.valid && ln.asid == asid && ln.r.VStart == r.VStart && ln.r.VEnd == r.VEnd {
			ln.r = r
			ln.lru = t.tick
			return
		}
		if !ln.valid {
			victim = i
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = i
		}
	}
	t.lines[victim] = rangeLine{r: r, asid: asid, valid: true, lru: t.tick}
}

// InvalidateOverlap drops asid's ranges overlapping [start, end).
func (t *RangeTLB) InvalidateOverlap(start, end mem.VAddr, asid uint16) {
	for i := range t.lines {
		ln := &t.lines[i]
		if ln.valid && ln.asid == asid && ln.r.VStart < end && start < ln.r.VEnd {
			ln.valid = false
		}
	}
}
