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
	cfg              HierarchyConfig
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
		cfg:  cfg,
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

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Access performs a data access at physical address pa and returns the
// latency in cycles. pc drives the IP-stride prefetcher (pass 0 for
// non-application traffic). The access-type tag t flows down to DRAM for
// attribution.
func (h *Hierarchy) Access(pa mem.PAddr, write bool, t mem.AccessType, pc uint64, now uint64) uint64 {
	la := mem.Line(pa)
	lat := h.L1D.Latency()
	hitL1 := h.L1D.Access(la, write, t)
	if h.ipStride != nil && t == mem.ATData {
		for _, ppa := range h.ipStride.Observe(pc, la) {
			h.prefetchFill(mem.Line(ppa), t, now)
		}
	}
	if hitL1 {
		return lat
	}
	lat += h.L2.Latency()
	if h.L2.Access(la, write, t) {
		h.L1D.Fill(la, write, t, false)
		return lat
	}
	if h.stream != nil && (t == mem.ATData || t == mem.ATKernel) {
		for _, ppa := range h.stream.Observe(la) {
			h.prefetchFillL2(ppa, t, now)
		}
	}
	lat += h.L3.Latency()
	if h.L3.Access(la, write, t) {
		h.fillUp(la, write, t)
		return lat
	}
	lat += h.Dram.Access(la, false, t, now+lat)
	h.fillAll(la, write, t, now+lat)
	return lat
}

// FetchInstr performs an instruction-fetch access (L1I path).
func (h *Hierarchy) FetchInstr(pa mem.PAddr, now uint64) uint64 {
	la := mem.Line(pa)
	lat := h.L1I.Latency()
	if h.L1I.Access(la, false, mem.ATInstr) {
		return lat
	}
	lat += h.L2.Latency()
	if h.L2.Access(la, false, mem.ATInstr) {
		h.L1I.Fill(la, false, mem.ATInstr, false)
		return lat
	}
	lat += h.L3.Latency()
	if h.L3.Access(la, false, mem.ATInstr) {
		h.L2.Fill(la, false, mem.ATInstr, false)
		h.L1I.Fill(la, false, mem.ATInstr, false)
		return lat
	}
	lat += h.Dram.Access(la, false, mem.ATInstr, now+lat)
	h.L3.Fill(la, false, mem.ATInstr, false)
	h.L2.Fill(la, false, mem.ATInstr, false)
	h.L1I.Fill(la, false, mem.ATInstr, false)
	return lat
}

// fillUp inserts into L2 and L1D after an L3 hit, handling writebacks.
func (h *Hierarchy) fillUp(la mem.PAddr, write bool, t mem.AccessType) {
	if wb, dirty := h.L2.Fill(la, write, t, false); dirty {
		h.L3.Fill(wb, true, t, false)
	}
	if wb, dirty := h.L1D.Fill(la, write, t, false); dirty {
		h.L2.Fill(wb, true, t, false)
	}
}

// fillAll inserts into every level after a DRAM fill.
func (h *Hierarchy) fillAll(la mem.PAddr, write bool, t mem.AccessType, now uint64) {
	if wb, dirty := h.L3.Fill(la, write, t, false); dirty {
		h.Dram.Access(wb, true, t, now)
	}
	h.fillUp(la, write, t)
}

// prefetchFill services an L1D prefetch: it pulls the line to L1D,
// fetching from lower levels as needed (latency hidden, bandwidth and
// occupancy modeled). Each level is probed and filled in one scan via
// FillIfAbsent; every level sees the same per-cache operation sequence
// as the historical probe-then-fill form, so simulated state is
// identical — the fused form just avoids rescanning each set.
func (h *Hierarchy) prefetchFill(la mem.PAddr, t mem.AccessType, now uint64) {
	if h.L1D.FillIfAbsent(la, t) {
		return
	}
	// L2 and L3 are filled only when the line was in neither (an
	// L3-only hit leaves L2 untouched), so L2 needs a separate probe.
	if !h.L2.Lookup(la) {
		if !h.L3.FillIfAbsent(la, t) {
			h.Dram.Access(la, false, t, now)
			h.L2.Fill(la, false, t, true)
		}
	}
}

// prefetchFillL2 services an L2 stream prefetch.
func (h *Hierarchy) prefetchFillL2(la mem.PAddr, t mem.AccessType, now uint64) {
	if h.L2.FillIfAbsent(la, t) {
		return
	}
	if !h.L3.FillIfAbsent(la, t) {
		h.Dram.Access(la, false, t, now)
	}
}

// AccessPTE performs a page-table access on behalf of the hardware walker.
// PTEs are cacheable in the data caches (Table 2's "TLB entries stored in
// data caches" schemes extend this path).
func (h *Hierarchy) AccessPTE(pa mem.PAddr, write bool, now uint64) uint64 {
	return h.Access(pa, write, mem.ATPTE, 0, now)
}

// AccessMeta performs a translation-metadata access (range tables, RestSeg
// tags, VMA trees).
func (h *Hierarchy) AccessMeta(pa mem.PAddr, write bool, now uint64) uint64 {
	return h.Access(pa, write, mem.ATTransMeta, 0, now)
}
