package mmu

import (
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// NestedDesign implements two-dimensional (nested) address translation
// for virtualised execution (§6.1): guest virtual → guest physical
// through the guest page table, with every guest-physical access —
// including the guest page-table pointers themselves — translated
// through the host (extended) page table. A radix-radix walk costs up to
// 24 memory accesses; a nested TLB caching gVA→hPA translations and a
// host-translation cache (gPA→hPA, the nested-PWC analogue) cut the
// common case down, as in AMD NPT / VirTool's nested support.
type NestedDesign struct {
	Guest Walker // gVA -> gPA
	Host  Walker // gPA -> hPA
	Mem   Memory

	nestedTLB *tlb.TLB      // gVA -> hPA (the paper's nested TLB [172])
	hostCache *tlb.KeyCache // gPA page -> hPA frame (nested walk cache)

	GuestWalks uint64
	HostWalks  uint64
}

// Walker is the one page-table operation the nested walker needs from
// each dimension: a functional walk listing the hardware's accesses.
type Walker interface {
	Walk(va mem.VAddr) pagetable.WalkResult
}

// NewNestedDesign builds the 2D walker.
func NewNestedDesign(guest, host Walker, m Memory) *NestedDesign {
	return &NestedDesign{
		Guest:     guest,
		Host:      host,
		Mem:       m,
		nestedTLB: tlb.New("nested-TLB", 64, 8, 2, mem.Page4K, mem.Page2M),
		hostCache: tlb.NewKeyCache(64, 64, 2),
	}
}

// translateHost resolves one guest-physical address to host-physical,
// charging the host-dimension walk unless cached.
func (d *NestedDesign) translateHost(gpa mem.PAddr, now uint64) (mem.PAddr, uint64, bool) {
	gframe := mem.Page4K.FrameBase(gpa)
	off := mem.PAddr(mem.Page4K.Offset(mem.VAddr(gpa)))
	lat := d.hostCache.Latency()
	if hframe, ok := d.hostCache.Lookup(uint64(gframe)); ok {
		return mem.PAddr(hframe) + off, lat, true
	}
	walk := d.Host.Walk(mem.VAddr(gpa))
	d.HostWalks++
	for i := 0; i < walk.NSteps; i++ {
		lat += d.Mem.AccessPTE(walk.Steps[i].PA, false, now+lat)
	}
	if !walk.Found || !walk.Entry.Present {
		return 0, lat, false
	}
	hframe := walk.Entry.Size.Translate(walk.Entry.Frame, mem.VAddr(gpa))
	hframe = mem.Page4K.FrameBase(hframe)
	d.hostCache.Insert(uint64(gframe), uint64(hframe))
	return hframe + off, lat, true
}

// TranslateMiss implements Design: the full 2D walk.
func (d *NestedDesign) TranslateMiss(va mem.VAddr, now uint64) Result {
	var lat uint64
	lat += d.nestedTLB.Latency()
	if e, ok := d.nestedTLB.Lookup(va, 0); ok {
		return Result{PA: e.Size.Translate(e.Frame, va), Size: e.Size, Lat: lat}
	}

	gwalk := d.Guest.Walk(va)
	d.GuestWalks++
	// Each guest page-table pointer is a guest-physical address that the
	// hardware must itself translate through the host dimension.
	for i := 0; i < gwalk.NSteps; i++ {
		hpa, hlat, ok := d.translateHost(gwalk.Steps[i].PA, now+lat)
		lat += hlat
		if !ok {
			return Result{Lat: lat, Fault: true}
		}
		lat += d.Mem.AccessPTE(hpa, false, now+lat)
	}
	if !gwalk.Found || !gwalk.Entry.Present {
		return Result{Lat: lat, Fault: true}
	}
	// Finally translate the guest frame itself.
	gpa := gwalk.Entry.Size.Translate(gwalk.Entry.Frame, va)
	hpa, hlat, ok := d.translateHost(gpa, now+lat)
	lat += hlat
	if !ok {
		return Result{Lat: lat, Fault: true}
	}
	d.nestedTLB.Insert(tlb.Entry{
		VPN: mem.Page4K.VPN(va), Size: mem.Page4K,
		Frame: mem.Page4K.FrameBase(hpa),
	})
	return Result{PA: hpa, Size: mem.Page4K, Lat: lat}
}

// Invalidate implements Design. The nested TLB caches 4K entries
// only, so unmapping a larger guest page drops every entry under it.
func (d *NestedDesign) Invalidate(va mem.VAddr, size mem.PageSize) {
	d.nestedTLB.InvalidateRange(size.PageBase(va), size.Bytes(), 0)
}
