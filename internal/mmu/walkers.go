package mmu

import (
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// RadixWalker walks a radix page table through three page-walk caches
// (Table 4: 32-entry 4-way, 2-cycle), skipping the upper levels on PWC
// hits (Barr et al. translation caching).
type RadixWalker struct {
	PT   pagetable.PageTable
	Mem  Memory
	rpt  *pagetable.Radix // concrete PT when radix: devirtualized Walk
	pwcs [3]*tlb.KeyCache // depth 1 (PDPT ptr), 2 (PD ptr), 3 (PT ptr), keyed by pwcTag
}

// pwcTag returns the VA bits that identify the node pointer cached by
// pwcs[d], the PWC at depth d+1: VA[47:39] at depth 1, VA[47:30] at
// depth 2, VA[47:21] at depth 3.
func pwcTag(va mem.VAddr, d int) uint64 { return uint64(va) >> uint(39-9*d) }

// NewRadixWalker builds the walker with the Table 4 PWC configuration
// (32-entry, 4-way, 2-cycle).
func NewRadixWalker(pt pagetable.PageTable, m Memory) *RadixWalker {
	return NewRadixWalkerSized(pt, m, 32, 4)
}

// NewRadixWalkerSized builds the walker with explicit PWC geometry;
// scaled-down experiment configurations shrink the PWCs alongside the
// TLBs to preserve the paper's PWC-reach-to-footprint ratio.
func NewRadixWalkerSized(pt pagetable.PageTable, m Memory, pwcEntries, pwcWays int) *RadixWalker {
	w := &RadixWalker{PT: pt, Mem: m}
	w.rpt, _ = pt.(*pagetable.Radix)
	for i := 0; i < 3; i++ {
		w.pwcs[i] = tlb.NewKeyCache(pwcEntries, pwcWays, 2)
	}
	return w
}

// TranslateMiss implements Design.
func (w *RadixWalker) TranslateMiss(va mem.VAddr, now uint64) Result {
	var walk pagetable.WalkResult
	if w.rpt != nil {
		walk = w.rpt.Walk(va)
	} else {
		walk = w.PT.Walk(va)
	}
	// Find the deepest PWC hit to skip upper-level accesses. PWC at
	// depth d caches the pointer read at step d (0-based step d gives
	// the node for step d+1), so a hit at depth d skips steps 0..d-1.
	skip := 0
	var lat uint64
	for d := 2; d >= 0; d-- {
		if d+1 >= walk.NSteps {
			continue // walk terminated above this depth
		}
		lat += w.pwcs[d].Latency()
		if _, ok := w.pwcs[d].Lookup(pwcTag(va, d)); ok {
			skip = d + 1
			break
		}
	}
	for i := skip; i < walk.NSteps; i++ {
		lat += w.Mem.AccessPTE(walk.Steps[i].PA, false, now+lat)
	}
	// Fill PWCs with the node pointers discovered on the way down.
	for d := 0; d < 3 && d+1 < walk.NSteps; d++ {
		node := walk.Steps[d+1].PA &^ 4095
		w.pwcs[d].Insert(pwcTag(va, d), uint64(node))
	}
	if !walk.Found || !walk.Entry.Present {
		return Result{Lat: lat, Fault: true}
	}
	return Result{PA: walk.Entry.Frame, Size: walk.Entry.Size, Lat: lat}
}

// Invalidate implements Design (PWCs cache node pointers, which remain
// valid across leaf changes; a full flush happens on node teardown —
// approximated by leaving them, as x86 does until INVLPG semantics
// require otherwise).
func (w *RadixWalker) Invalidate(va mem.VAddr, size mem.PageSize) {}

// PWCStats exposes the page-walk-cache statistics (test hook).
func (w *RadixWalker) PWCStats(depth int) *tlb.Stats { return w.pwcs[depth-1].Stats() }

// HashWalker walks a hash-based page table (ECH, HDC, HT): each probe in
// the functional walk is one memory access; ECH configurations add the
// cuckoo-walk-cache latency.
type HashWalker struct {
	PT     pagetable.PageTable
	Mem    Memory
	CWCLat uint64 // 2 cycles for ECH's perfect cuckoo walk caches
}

// TranslateMiss implements Design.
func (w *HashWalker) TranslateMiss(va mem.VAddr, now uint64) Result {
	// ECH's walker issues all nest probes in parallel: latency is the
	// slowest probe, but every probe consumes memory bandwidth and may
	// close DRAM rows (the Fig. 14 interference). HDC's open-addressing
	// probes and HT's chain hops are dependent and serialise.
	walk := w.PT.Walk(va)
	lat, worst := w.CWCLat, uint64(0)
	for i := 0; i < walk.NSteps; i++ {
		l := w.Mem.AccessPTE(walk.Steps[i].PA, false, now+lat)
		if w.CWCLat > 0 {
			worst = max(worst, l)
		} else {
			lat += l
		}
	}
	lat += worst
	if !walk.Found || !walk.Entry.Present {
		return Result{Lat: lat, Fault: true}
	}
	return Result{PA: walk.Entry.Frame, Size: walk.Entry.Size, Lat: lat}
}

// Invalidate implements Design.
func (w *HashWalker) Invalidate(va mem.VAddr, size mem.PageSize) {}

// FixedWalker is the emulation-based baseline (§2.1): it resolves
// translations functionally and charges a fixed latency — exactly what
// baseline Sniper does with its fixed PTW latency. It performs no memory
// accesses, so it creates none of the interference Virtuoso models.
type FixedWalker struct {
	PT  pagetable.PageTable
	Lat uint64
}

// TranslateMiss implements Design.
func (w *FixedWalker) TranslateMiss(va mem.VAddr, now uint64) Result {
	e, ok := w.PT.Lookup(va)
	if !ok || !e.Present {
		return Result{Lat: w.Lat, Fault: true}
	}
	return Result{PA: e.Frame, Size: e.Size, Lat: w.Lat}
}

// Invalidate implements Design.
func (w *FixedWalker) Invalidate(va mem.VAddr, size mem.PageSize) {}
