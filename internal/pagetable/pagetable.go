// Package pagetable implements the page-table designs evaluated in the
// paper's Use Case 1 (§7.4): the x86-64 4-level radix table, Elastic
// Cuckoo Hash page tables (ECH, Skarlatos et al.), the open-addressing
// hashed page table of Yaniv & Tsafrir (HDC, "Hash, Don't Cache"), and a
// PowerPC-style chained hash table (HT).
//
// Every design stores its entries at real simulated physical addresses
// (frames from the slab allocator or contiguous regions from the buddy
// allocator), so hardware walks and kernel updates generate cache and
// DRAM traffic with realistic locality — the property that lets Figs. 13,
// 14 and 15 distinguish the designs.
package pagetable

import (
	"repro/internal/instrument"
	"repro/internal/mem"
)

// Entry is one translation: a virtual page mapped to a physical frame.
type Entry struct {
	Frame    mem.PAddr
	Size     mem.PageSize
	Present  bool
	Writable bool
	Dirty    bool
	Accessed bool
	Swapped  bool   // present=false but backed by a swap slot
	SwapSlot uint64 // valid when Swapped
}

// MaxWalkSteps bounds the memory accesses of a single walk across all
// designs (radix: 4; ECH: up to ways×sizes; HT: bucket+chain).
const MaxWalkSteps = 24

// WalkStep is one memory access a hardware walker must perform.
type WalkStep struct {
	PA    mem.PAddr
	Level int // radix: 4 (PML4) .. 1 (PTE); hash designs: 0
}

// WalkResult is the outcome of a functional walk: the ordered list of
// memory accesses a hardware walker performs plus the terminal entry.
type WalkResult struct {
	Steps  [MaxWalkSteps]WalkStep
	NSteps int
	Entry  Entry
	Found  bool // a present or swapped entry exists
}

func (w *WalkResult) push(pa mem.PAddr, level int) {
	if w.NSteps < MaxWalkSteps {
		w.Steps[w.NSteps] = WalkStep{PA: pa, Level: level}
		w.NSteps++
	}
}

// FrameAllocator supplies 4 KB frames for page-table nodes (the slab
// path of §5.1) and contiguous regions for hash tables.
type FrameAllocator interface {
	AllocFrame() (mem.PAddr, bool)
	FreeFrame(pa mem.PAddr)
	AllocContig(pages, alignPages uint64) (mem.PAddr, bool)
}

// PageTable is the interface all designs implement.
//
// Insert and Remove take an instrument.KernelMem because page-table
// updates are performed by kernel code: their memory accesses belong in
// the injected instruction stream (they dominate the minor-fault latency
// differences of Fig. 15).
type PageTable interface {
	// Walk performs a functional walk for va, listing the memory
	// accesses a hardware walker performs.
	Walk(va mem.VAddr) WalkResult
	// Lookup is a functional-only query (no walk steps).
	Lookup(va mem.VAddr) (Entry, bool)
	// Insert maps the page containing va.
	Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error
	// Remove unmaps the page containing va, returning the old entry.
	Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool)
	// Update rewrites an existing mapping in place (e.g., marking a PTE
	// swapped); returns false if absent.
	Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool
	// MappedPages returns the number of live translations.
	MappedPages() uint64
}

// ErrOutOfMemory is returned when the frame allocator is exhausted.
type ErrOutOfMemory struct{ What string }

func (e ErrOutOfMemory) Error() string { return "pagetable: out of memory allocating " + e.What }
