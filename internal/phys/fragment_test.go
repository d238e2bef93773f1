package phys

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/xrand"
)

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

// fragmentRef is the Fragment that probed the bitmap on every pick,
// kept as the reference the per-block one must match entry for entry.
func fragmentRef(m *Mem, targetFree2MFrac float64, seed uint64) {
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
	for blk := uint64(0); blk < m.total2M && m.free2M > target; blk++ {
		breakAt(blk*pagesPer2M + pagesPer2M/2)
	}
}

func (m *Mem) clone() *Mem {
	c := *m
	c.bitmap = slices.Clone(m.bitmap)
	c.blockFree = slices.Clone(m.blockFree)
	c.smallStack = slices.Clone(m.smallStack)
	c.largeStack = slices.Clone(m.largeStack)
	return &c
}

// sameMem reports the first difference between two memories' whole
// state, or "".
func sameMem(a, b *Mem) string {
	switch {
	case a.totalPages != b.totalPages || a.total2M != b.total2M:
		return "sizes"
	case a.freePages != b.freePages:
		return fmt.Sprintf("free pages %d, reference %d", a.freePages, b.freePages)
	case a.free2M != b.free2M:
		return fmt.Sprintf("free 2M blocks %d, reference %d", a.free2M, b.free2M)
	case !slices.Equal(a.bitmap, b.bitmap):
		return "bitmaps"
	case !slices.Equal(a.blockFree, b.blockFree):
		return "block free counts"
	case !slices.Equal(a.smallStack, b.smallStack):
		return fmt.Sprintf("small stacks (%d, reference %d entries)", len(a.smallStack), len(b.smallStack))
	case !slices.Equal(a.largeStack, b.largeStack):
		return fmt.Sprintf("large stacks (%d, reference %d entries)", len(a.largeStack), len(b.largeStack))
	}
	return ""
}

// twinOps drives two memories through the same mixed ops and returns
// the first op at which they hand out different frames, or -1. Frees
// pick from the ranges handed out so far, which both share while the
// memories agree.
func twinOps(a, b *Mem, rng *xrand.Rand, ops int) int {
	var live []liveRange
	for i := range ops {
		var pa, pb mem.PAddr
		var na, nb uint64
		var oka, okb bool
		switch k := rng.Uint64n(16); {
		case k < 6:
			pa, oka = a.Alloc4K()
			pb, okb = b.Alloc4K()
			na, nb = 1, 1
		case k < 8:
			pa, oka = a.Alloc2M()
			pb, okb = b.Alloc2M()
			na, nb = pagesPer2M, pagesPer2M
		case k < 9:
			// At most half a block, so a first fit needs no long scan
			// of a fully fragmented 16 GB.
			pages, align := 1+rng.Uint64n(pagesPer2M/2), uint64(1)<<rng.Uint64n(9)
			pa, oka = a.AllocContig(pages, align)
			pb, okb = b.AllocContig(pages, align)
			na, nb = pages, pages
		case k < 10 && rng.Uint64n(8) == 0:
			pa, na, oka = a.AllocLargestRange(1, 4*pagesPer2M)
			pb, nb, okb = b.AllocLargestRange(1, 4*pagesPer2M)
		default:
			if len(live) == 0 {
				continue
			}
			j := rng.Uint64n(uint64(len(live)))
			s := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(pageAddr(s.base), s.pages)
			b.Free(pageAddr(s.base), s.pages)
			continue
		}
		if pa != pb || na != nb || oka != okb {
			return i
		}
		if oka {
			live = append(live, liveRange{uint64(pa) >> 12, na})
		}
	}
	return -1
}

// preAllocate runs up to 40 random allocations and frees on m, aimed at
// the pages a Fragment pick reads: middle pages, their neighbours and
// block edges, so blocks come to hold pages above, at and below their
// middle.
func preAllocate(m *Mem, rng *xrand.Rand) {
	var live []liveRange
	for range rng.Uint64n(41) {
		var pa mem.PAddr
		var n uint64
		var ok bool
		switch k := rng.Uint64n(8); {
		case k < 2:
			pa, ok = m.Alloc4K()
			n = 1
		case k < 3:
			pa, ok = m.Alloc2M()
			n = pagesPer2M
		case k < 4:
			n = 1 + rng.Uint64n(3*pagesPer2M)
			pa, ok = m.AllocContig(n, uint64(1)<<rng.Uint64n(10))
		case k < 6:
			blk := rng.Uint64n(m.total2M) * pagesPer2M
			p := blk + []uint64{pagesPer2M / 2, pagesPer2M/2 - 1, pagesPer2M/2 + 1, 0, pagesPer2M - 1, rng.Uint64n(pagesPer2M)}[rng.Uint64n(6)]
			if m.pageFree(p) {
				m.allocSpecific(p)
				pa, n, ok = pageAddr(p), 1, true
			}
		default:
			if len(live) > 0 {
				j := rng.Uint64n(uint64(len(live)))
				s := live[j]
				live = slices.Delete(live, int(j), int(j)+1)
				m.Free(pageAddr(s.base), s.pages)
			}
		}
		if ok {
			live = append(live, liveRange{uint64(pa) >> 12, n})
		}
	}
}

// TestFragmentMatchesReference holds Fragment to fragmentRef: after
// random pre-allocations, both leave the same bitmap, block counts,
// candidate stacks in order, and counters, and the next 1,000 mixed ops
// hand out the same frames.
func TestFragmentMatchesReference(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for _, size := range []uint64{24 * mem.MB, 64 * mem.MB, 2 * mem.GB, 16 * mem.GB} {
		for _, frag := range []float64{0, 0.05, 0.2, 0.5, 0.9, 0.99} {
			t.Run(fmt.Sprintf("%dMB/frag%v", size/mem.MB, frag), func(t *testing.T) {
				for seed := range uint64(seeds) {
					rng := xrand.New(seed*131 + size/mem.MB)
					m := New(size)
					preAllocate(m, rng)
					ref := m.clone()
					m.Fragment(frag, seed)
					fragmentRef(ref, frag, seed)
					if diff := sameMem(m, ref); diff != "" {
						t.Fatalf("seed %d: after Fragment, %s differ", seed, diff)
					}
					if op := twinOps(m, ref, rng, 1_000); op >= 0 {
						t.Fatalf("seed %d: op %d after Fragment handed out different frames", seed, op)
					}
					if diff := sameMem(m, ref); diff != "" {
						t.Fatalf("seed %d: after 1,000 ops, %s differ", seed, diff)
					}
				}
			})
		}
	}
}
