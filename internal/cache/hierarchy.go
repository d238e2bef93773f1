package cache

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/recycle"
)

// HierarchyConfig sizes the three cache levels (Table 4 defaults via
// DefaultHierarchyConfig).
type HierarchyConfig struct {
	L1ISize, L1DSize uint64
	L1Ways           int
	L1Latency        uint64
	L2Size           uint64
	L2Ways           int
	L2Latency        uint64
	L3Size           uint64
	L3Ways           int
	L3Latency        uint64
	EnablePrefetch   bool
}

// DefaultHierarchyConfig returns the paper's Table 4 cache configuration:
// 32 KB 8-way L1 I/D (4-cycle, LRU, IP-stride at L1D), 2 MB 16-way L2
// (16-cycle, SRRIP, stream prefetcher), 2 MB/core 16-way L3 (35-cycle).
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1ISize: 32 * mem.KB, L1DSize: 32 * mem.KB, L1Ways: 8, L1Latency: 4,
		L2Size: 2 * mem.MB, L2Ways: 16, L2Latency: 16,
		L3Size: 2 * mem.MB, L3Ways: 16, L3Latency: 35,
		EnablePrefetch: true,
	}
}

// Validate reports the first level whose geometry cannot be built: a
// zero size or way count, a line count not divisible by the ways, or a
// set count that is not a power of two.
func (cfg HierarchyConfig) Validate() error {
	for _, l := range [...]struct {
		name string
		size uint64
		ways int
	}{
		{"L1I", cfg.L1ISize, cfg.L1Ways},
		{"L1D", cfg.L1DSize, cfg.L1Ways},
		{"L2", cfg.L2Size, cfg.L2Ways},
		{"L3", cfg.L3Size, cfg.L3Ways},
	} {
		if _, err := geometry(l.size, l.ways); err != nil {
			return fmt.Errorf("cache: %s: %w", l.name, err)
		}
	}
	return nil
}

// Hierarchy composes L1I/L1D, a unified L2, a unified L3 and a DRAM
// controller. It is shared by application accesses, injected kernel
// streams, and hardware page-table-walker accesses, so all three classes
// of traffic contend for the same capacity and bandwidth.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Cache
	Dram             *dram.Controller
	ipStride         *IPStridePrefetcher
	stream           *StreamPrefetcher
}

// NewHierarchy builds the hierarchy over the given DRAM controller.
func NewHierarchy(cfg HierarchyConfig, d *dram.Controller) *Hierarchy {
	return NewHierarchyWith(cfg, d, nil)
}

// NewHierarchyWith is NewHierarchy drawing each level's line arrays
// from pool (nil pool = plain NewHierarchy).
func NewHierarchyWith(cfg HierarchyConfig, d *dram.Controller, pool *recycle.Pool) *Hierarchy {
	h := &Hierarchy{
		L1I:  NewWith(pool, "L1I", cfg.L1ISize, cfg.L1Ways, cfg.L1Latency, LRU),
		L1D:  NewWith(pool, "L1D", cfg.L1DSize, cfg.L1Ways, cfg.L1Latency, LRU),
		L2:   NewWith(pool, "L2", cfg.L2Size, cfg.L2Ways, cfg.L2Latency, SRRIP),
		L3:   NewWith(pool, "L3", cfg.L3Size, cfg.L3Ways, cfg.L3Latency, SRRIP),
		Dram: d,
	}
	if cfg.EnablePrefetch {
		h.ipStride = NewIPStride(256, 2)
		h.stream = NewStream(16, 4)
	}
	return h
}

// Recycle hands every level's line arrays back to pool; the hierarchy
// must not be used afterwards.
func (h *Hierarchy) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	h.L1I.Recycle(pool)
	h.L1D.Recycle(pool)
	h.L2.Recycle(pool)
	h.L3.Recycle(pool)
}

// site is the kind of level fill a victim comes from.
type site uint8

const (
	siteL2Hit     site = iota // the L1D fill after an L2 hit
	siteWriteBack             // the fill a writeback lands in
	siteInstr                 // an instruction-fetch fill
	sitePrefetch              // a prefetch fill
	siteDemand                // any other demand fill after an L3 hit or DRAM
)

// drops is the set of fill sites, one bit each, whose dirty victims are
// dropped instead of written back, as the model has always done: only
// demand fills after an L3 hit or DRAM (siteDemand) pass their victim
// on, and the fill it lands in drops its own, so a victim moves one
// level at most. Writing every victim back changes results. A constant
// set folds the check away wherever the site is a constant.
const drops = 1<<siteL2Hit | 1<<siteWriteBack | 1<<siteInstr | 1<<sitePrefetch

// writeBack takes the victim wb of every fill of c at site s and, when
// it is dirty and not dropped there, has writeBelow write it back. It
// inlines, so a clean or dropped victim costs no call.
func (h *Hierarchy) writeBack(c *Cache, wb mem.PAddr, dirty bool, s site, t mem.AccessType, now uint64) {
	if dirty && drops>>s&1 == 0 {
		h.writeBelow(c, wb, t, now)
	}
}

// writeBelow writes wb, a dirty victim of c, into the level below c: L1I
// and L1D write back into L2, L2 into L3, L3 into DRAM. A dirty victim
// of the fill it lands in goes to writeBack at siteWriteBack. t and now
// are the access type and cycle of the traffic that caused the first
// fill.
func (h *Hierarchy) writeBelow(c *Cache, wb mem.PAddr, t mem.AccessType, now uint64) {
	if c == h.L3 {
		h.Dram.Access(wb, true, t, now)
		return
	}
	below := h.L2
	if c == h.L2 {
		below = h.L3
	}
	wb, dirty, _ := below.fill(wb, true, false)
	h.writeBack(below, wb, dirty, siteWriteBack, t, now)
}

// Access performs a data access at physical address pa and returns the
// latency in cycles. pc drives the IP-stride prefetcher (pass 0 for
// non-application traffic). The access-type tag t flows down to DRAM for
// attribution.
func (h *Hierarchy) Access(pa mem.PAddr, write bool, t mem.AccessType, pc uint64, now uint64) uint64 {
	return h.access(h.L1D, pa, write, t, pc, now)
}

// FetchInstr performs an instruction-fetch access: the data walk from
// L1I instead of L1D, which the prefetchers do not train on.
func (h *Hierarchy) FetchInstr(pa mem.PAddr, now uint64) uint64 {
	return h.access(h.L1I, pa, false, mem.ATInstr, 0, now)
}

// access walks la down from top, the first level, to the first level
// that holds it, then installs la in every level above that one, bottom
// up, and hands each dirty victim to writeBack.
//
// Each demand fill installs la in a level that missed it (Cache.install,
// no second probe). Between a level's miss and its install only
// prefetch fills and writeback fills of other lines run. The prefetchers
// see only line addresses, so their strides are non-zero multiples of a
// line and they return la ± k·stride for k ≥ 1: a prefetch never brings
// la itself. A writeback into a level carries a victim of the level
// above it, which has missed la too, so it is never la either.
func (h *Hierarchy) access(top *Cache, pa mem.PAddr, write bool, t mem.AccessType, pc uint64, now uint64) uint64 {
	la := mem.Line(pa)
	lat := top.Latency()
	hitL1 := top.Access(la, write, t)
	if h.ipStride != nil && t == mem.ATData {
		for _, ppa := range h.ipStride.Observe(pc, la) {
			h.prefetch(h.L1D, mem.Line(ppa), t, now)
		}
	}
	if hitL1 {
		return lat
	}
	s, l2Miss := siteL2Hit, siteDemand // the site of the fills to come
	if t == mem.ATInstr {
		s, l2Miss = siteInstr, siteInstr
	}
	lat += h.L2.Latency()
	if !h.L2.Access(la, write, t) {
		if h.stream != nil && (t == mem.ATData || t == mem.ATKernel) {
			for _, ppa := range h.stream.Observe(la) {
				h.prefetch(h.L2, ppa, t, now)
			}
		}
		s = l2Miss
		lat += h.L3.Latency()
		if !h.L3.Access(la, write, t) {
			lat += h.Dram.Access(la, false, t, now+lat)
			wb, dirty := h.L3.install(la, write, false)
			h.writeBack(h.L3, wb, dirty, s, t, now+lat)
		}
		wb, dirty := h.L2.install(la, write, false)
		h.writeBack(h.L2, wb, dirty, s, t, now+lat)
	}
	wb, dirty := top.install(la, write, false)
	h.writeBack(top, wb, dirty, s, t, now+lat)
	return lat
}

// prefetch services a prefetch into top (L1D for the IP-stride
// prefetcher, L2 for the stream prefetcher): it pulls the line up from
// the first level that holds it (latency hidden, bandwidth and occupancy
// modeled). Cache.fill probes and fills a level in one scan and leaves a
// present line untouched. An L1D prefetch fills L2 only when the line
// was in neither L2 nor L3.
func (h *Hierarchy) prefetch(top *Cache, la mem.PAddr, t mem.AccessType, now uint64) {
	wb, dirty, present := top.fill(la, false, true)
	h.writeBack(top, wb, dirty, sitePrefetch, t, now)
	if present || top == h.L1D && h.L2.Lookup(la) {
		return
	}
	wb, dirty, present = h.L3.fill(la, false, true)
	h.writeBack(h.L3, wb, dirty, sitePrefetch, t, now)
	if present {
		return
	}
	h.Dram.Access(la, false, t, now)
	if top == h.L1D {
		// L2.Lookup proved la absent, and only L3 and DRAM ran since.
		wb, dirty = h.L2.install(la, false, true)
		h.writeBack(h.L2, wb, dirty, sitePrefetch, t, now)
	}
}

// AccessPTE performs a page-table access on behalf of the hardware walker.
// PTEs are cacheable in the data caches.
func (h *Hierarchy) AccessPTE(pa mem.PAddr, write bool, now uint64) uint64 {
	return h.Access(pa, write, mem.ATPTE, 0, now)
}

// AccessMeta performs a translation-metadata access (range tables, RestSeg
// tags, VMA trees).
func (h *Hierarchy) AccessMeta(pa mem.PAddr, write bool, now uint64) uint64 {
	return h.Access(pa, write, mem.ATTransMeta, 0, now)
}
