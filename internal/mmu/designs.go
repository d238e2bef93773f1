package mmu

import (
	"repro/internal/mem"
	"repro/internal/midgard"
	"repro/internal/rmm"
	"repro/internal/tlb"
	"repro/internal/utopia"
)

// UtopiaDesign translates through Utopia's RestSegs before falling back
// to the flexible segment's radix walk (§7.6.1, Figs. 16, 19, 20). Set
// membership is filtered by the SF cache and way tags by the TAR cache
// (Table 4: 8 KB each, 2-cycle); misses read the in-memory virtual tag
// array (RSW), whose locality degrades as the RestSeg grows — the
// Fig. 19 effect.
type UtopiaDesign struct {
	Sys  *utopia.System
	Flex *RadixWalker
	Mem  Memory
	tar  *tlb.MetaCache
	sf   *tlb.MetaCache
}

// NewUtopiaDesign builds the design.
func NewUtopiaDesign(sys *utopia.System, flex *RadixWalker, m Memory) *UtopiaDesign {
	return &UtopiaDesign{
		Sys:  sys,
		Flex: flex,
		Mem:  m,
		tar:  tlb.NewMetaCache("TAR", 1024, 2), // 8KB / 8B entries
		sf:   tlb.NewMetaCache("SF", 1024, 2),
	}
}

// Name implements Design.
func (d *UtopiaDesign) Name() string { return "utopia" }

// TranslateMiss implements Design.
func (d *UtopiaDesign) TranslateMiss(va mem.VAddr, now uint64) Result {
	var lat uint64
	for _, seg := range d.Sys.Segs {
		vpn := seg.PageSize.VPN(va)
		set := seg.SetOf(vpn)

		// TAR cache: VPN -> way.
		lat += d.tar.Latency()
		if way, ok := d.tar.Lookup(vpn); ok {
			return Result{PA: seg.FramePA(set, int(way)), Size: seg.PageSize, Lat: lat}
		}
		// SF cache: does this set contain the VPN at all?
		lat += d.sf.Latency()
		if present, ok := d.sf.Lookup(vpn); ok && present == 0 {
			continue // known absent: skip the tag-array read
		}
		// Read the set's virtual tags from memory (RSW access).
		way, found := seg.Lookup(vpn)
		lines := (seg.Ways*8 + mem.CacheLineBytes - 1) / mem.CacheLineBytes
		for l := 0; l < lines; l++ {
			lat += d.Mem.AccessMeta(seg.TagPA(set, l*8), false, now+lat)
		}
		if found {
			d.tar.Insert(vpn, uint64(way))
			d.sf.Insert(vpn, 1)
			return Result{PA: seg.FramePA(set, way), Size: seg.PageSize, Lat: lat}
		}
		d.sf.Insert(vpn, 0)
	}
	// Flexible segment: conventional radix walk.
	res := d.Flex.TranslateMiss(va, now+lat)
	res.Lat += lat
	return res
}

// Invalidate implements Design.
func (d *UtopiaDesign) Invalidate(va mem.VAddr, size mem.PageSize) {
	for _, seg := range d.Sys.Segs {
		if seg.PageSize == size {
			vpn := seg.PageSize.VPN(va)
			d.tar.Invalidate(vpn)
			d.sf.Invalidate(vpn)
		}
	}
	d.Flex.Invalidate(va, size)
}

// RMMDesign is Redundant Memory Mappings: a range lookaside buffer
// backed by a hardware range-table walker, redundant with the radix page
// table (§7.6.3, Fig. 21).
type RMMDesign struct {
	RLB   *tlb.RangeTLB
	Table *rmm.Table
	Radix *RadixWalker
	Mem   Memory
	ASID  uint16

	RangeHits  uint64
	RangeWalks uint64
}

// NewRMMDesign builds the design with the Table 4 RLB (64-entry,
// 9-cycle).
func NewRMMDesign(table *rmm.Table, radix *RadixWalker, m Memory, asid uint16) *RMMDesign {
	return &RMMDesign{
		RLB:   tlb.NewRangeTLB("RLB", 64, 9),
		Table: table,
		Radix: radix,
		Mem:   m,
		ASID:  asid,
	}
}

// Name implements Design.
func (d *RMMDesign) Name() string { return "rmm" }

// TranslateMiss implements Design.
func (d *RMMDesign) TranslateMiss(va mem.VAddr, now uint64) Result {
	// The RLB is probed in parallel with the L2 TLB (Table 4); only the
	// portion of its latency beyond the STLB lookup shows up here.
	lat := d.RLB.Latency()
	if e, ok := d.RLB.Lookup(va, d.ASID); ok {
		d.RangeHits++
		pa := e.Translate(mem.Page4K.PageBase(va))
		return Result{PA: pa, Size: mem.Page4K, Lat: lat}
	}
	// Range walker: B-tree over ranges (translation metadata traffic).
	var steps []mem.PAddr
	r, ok := d.Table.Find(va, &steps)
	for _, pa := range steps {
		lat += d.Mem.AccessMeta(pa, false, now+lat)
	}
	if ok {
		d.RangeWalks++
		d.RLB.Insert(tlb.RangeEntry{VStart: r.VStart, VEnd: r.VEnd, PBase: r.PBase, ASID: d.ASID})
		pa := r.Translate(mem.Page4K.PageBase(va))
		return Result{PA: pa, Size: mem.Page4K, Lat: lat}
	}
	// Outside any range: conventional radix walk.
	res := d.Radix.TranslateMiss(va, now+lat)
	res.Lat += lat
	return res
}

// Invalidate implements Design.
func (d *RMMDesign) Invalidate(va mem.VAddr, size mem.PageSize) {
	d.RLB.InvalidateOverlap(size.PageBase(va), size.PageBase(va)+mem.VAddr(size.Bytes()), d.ASID)
	d.Radix.Invalidate(va, size)
}

// MidgardDesign implements the Midgard intermediate address space
// (§7.6.1, Fig. 17): the frontend maps VA→MA at VMA granularity through
// two levels of VMA lookaside buffers (L1 VLB 64-entry/1-cycle, L2
// 16-entry/4-cycle) with a VMA-tree walk on a miss; the backend maps
// MA→PA through a deep radix table, filtered by a backend TLB standing
// in for the fact that cache-resident data needs no backend translation.
type MidgardDesign struct {
	Space   *midgard.Space
	Backend *RadixWalker // MA-indexed
	Mem     Memory
	ASID    uint16

	l1vlb *tlb.RangeTLB
	l2vlb *tlb.RangeTLB
	btlb  *tlb.TLB
	// ExtraBackendSteps models the 6-level MA→PA radix (two more levels
	// than the 4-level walker underneath).
	ExtraBackendSteps int
}

// NewMidgardDesign builds the design with Table 4 parameters.
func NewMidgardDesign(space *midgard.Space, backend *RadixWalker, m Memory, asid uint16) *MidgardDesign {
	return &MidgardDesign{
		Space:             space,
		Backend:           backend,
		Mem:               m,
		ASID:              asid,
		l1vlb:             tlb.NewRangeTLB("L1-VLB", 64, 1),
		l2vlb:             tlb.NewRangeTLB("L2-VLB", 16, 4),
		btlb:              tlb.New("Backend-TLB", 512, 8, 2, mem.Page4K, mem.Page2M),
		ExtraBackendSteps: 2,
	}
}

// Name implements Design.
func (d *MidgardDesign) Name() string { return "midgard" }

// TranslateMiss implements Design.
func (d *MidgardDesign) TranslateMiss(va mem.VAddr, now uint64) Result {
	// Frontend: VA -> MA.
	var front uint64
	var ma mem.VAddr
	front += d.l1vlb.Latency()
	if e, ok := d.l1vlb.Lookup(va, d.ASID); ok {
		ma = mem.VAddr(e.PBase) + (va - e.VStart)
	} else {
		front += d.l2vlb.Latency()
		if e, ok := d.l2vlb.Lookup(va, d.ASID); ok {
			ma = mem.VAddr(e.PBase) + (va - e.VStart)
			d.l1vlb.Insert(e)
		} else {
			// VMA-tree walk in memory.
			var steps []mem.PAddr
			v, ok := d.Space.Find(va, &steps)
			for _, pa := range steps {
				front += d.Mem.AccessMeta(pa, false, now+front)
			}
			if !ok {
				return Result{Lat: front, FrontendLat: front, Fault: true}
			}
			ma = mem.VAddr(v.Translate(va))
			re := tlb.RangeEntry{VStart: v.VStart, VEnd: v.VEnd, PBase: mem.PAddr(v.MBase), ASID: d.ASID}
			d.l1vlb.Insert(re)
			d.l2vlb.Insert(re)
		}
	}

	// Backend: MA -> PA, only when the backend TLB misses (standing in
	// for Midgard's translate-past-the-LLC property).
	var back uint64
	back += d.btlb.Latency()
	if e, ok := d.btlb.Lookup(ma, d.ASID); ok {
		return Result{
			PA: e.Size.Translate(e.Frame, ma), Size: e.Size,
			Lat: front + back, FrontendLat: front, BackendLat: back,
		}
	}
	res := d.Backend.TranslateMiss(ma, now+front+back)
	// Charge the two extra levels of the 6-level MA radix.
	for i := 0; i < d.ExtraBackendSteps; i++ {
		back += d.Mem.AccessPTE(mem.PAddr(0x40_0000_0000)+mem.PAddr(uint64(ma)>>30<<6), false, now+front+back)
	}
	back += res.Lat
	if res.Fault {
		return Result{Lat: front + back, FrontendLat: front, BackendLat: back, Fault: true}
	}
	d.btlb.Insert(tlb.Entry{VPN: res.Size.VPN(ma), Size: res.Size, Frame: res.Size.FrameBase(res.PA), ASID: d.ASID})
	pa := res.Size.Translate(res.PA, ma)
	return Result{PA: pa, Size: res.Size, Lat: front + back, FrontendLat: front, BackendLat: back}
}

// Invalidate implements Design.
func (d *MidgardDesign) Invalidate(va mem.VAddr, size mem.PageSize) {
	// The kernel passes virtual addresses; conservative flush of the
	// frontend entry plus backend TLB entry for the mapped MA.
	if v, ok := d.Space.Find(va, nil); ok {
		ma := mem.VAddr(v.Translate(va))
		d.btlb.InvalidateVA(ma, d.ASID)
	}
	d.Backend.Invalidate(va, size)
}

// DirectSegDesign implements Direct Segments (Basu et al., ISCA'13): one
// [Base, Limit) → Offset segment translates the primary heap without TLB
// or walk; everything else falls back to radix.
type DirectSegDesign struct {
	Base, Limit mem.VAddr
	Offset      mem.PAddr
	Radix       *RadixWalker

	SegmentHits uint64
}

// Name implements Design.
func (d *DirectSegDesign) Name() string { return "directseg" }

// TranslateMiss implements Design.
func (d *DirectSegDesign) TranslateMiss(va mem.VAddr, now uint64) Result {
	if va >= d.Base && va < d.Limit {
		d.SegmentHits++
		// Base/limit/offset registers: effectively free.
		return Result{PA: d.Offset + mem.PAddr(va-d.Base), Size: mem.Page4K, Lat: 1}
	}
	return d.Radix.TranslateMiss(va, now)
}

// Invalidate implements Design.
func (d *DirectSegDesign) Invalidate(va mem.VAddr, size mem.PageSize) {
	d.Radix.Invalidate(va, size)
}
