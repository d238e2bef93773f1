package phys

import (
	"fmt"

	"repro/internal/mem"
)

// Slab is the kernel's object allocator (Bonwick-style), backing
// page-table frames and kernel metadata (VMA nodes, page-cache entries,
// swap-cache entries). It carves 2 MB chunks out of physical memory,
// bump-allocates objects from them and recycles page-table frames —
// mirroring the §5.1 flow in which MimicOS "requests new frames from the slab
// allocator" during page-table construction.
//
// Objects have real physical addresses so the instrumentation layer can
// emit kernel loads/stores against them.
type Slab struct {
	mem       *Mem
	chunk     mem.PAddr // current bump chunk base
	chunkOff  uint64
	chunkLen  uint64
	freeFrame []mem.PAddr // recycled 4 KB PT frames

	// Stats
	FramesAllocated uint64
	FramesRecycled  uint64
	ChunksGrabbed   uint64
	SlowPathRefills uint64
}

// NewSlab builds a slab allocator over m.
func NewSlab(m *Mem) *Slab {
	return &Slab{mem: m}
}

func (s *Slab) refill() bool {
	// Prefer a 2MB chunk; fall back to single pages under pressure.
	if pa, ok := s.mem.Alloc2M(); ok {
		s.chunk, s.chunkOff, s.chunkLen = pa, 0, 2*mem.MB
		s.ChunksGrabbed++
		return true
	}
	if pa, ok := s.mem.Alloc4K(); ok {
		s.chunk, s.chunkOff, s.chunkLen = pa, 0, 4*mem.KB
		s.ChunksGrabbed++
		s.SlowPathRefills++
		return true
	}
	return false
}

// AllocFrame returns a zero-filled 4 KB frame for a page-table node.
// ok=false indicates out-of-memory.
func (s *Slab) AllocFrame() (mem.PAddr, bool) {
	if n := len(s.freeFrame); n > 0 {
		pa := s.freeFrame[n-1]
		s.freeFrame = s.freeFrame[:n-1]
		s.FramesRecycled++
		return pa, true
	}
	pa, ok := s.allocBytes(4 * mem.KB)
	if ok {
		s.FramesAllocated++
	}
	return pa, ok
}

// FreeFrame recycles a page-table frame.
func (s *Slab) FreeFrame(pa mem.PAddr) { s.freeFrame = append(s.freeFrame, pa) }

// AllocContig delegates to the underlying physical memory; page-table
// designs use it for large contiguous structures (hash tables, ECH ways).
func (s *Slab) AllocContig(pages, alignPages uint64) (mem.PAddr, bool) {
	return s.mem.AllocContig(pages, alignPages)
}

// AllocObject returns the address of a kernel object of the given size
// (rounded up to 64 B). ok=false indicates out-of-memory.
func (s *Slab) AllocObject(size uint64) (mem.PAddr, bool) {
	return s.allocBytes(mem.AlignUp(size, mem.CacheLineBytes))
}

func (s *Slab) allocBytes(size uint64) (mem.PAddr, bool) {
	if size > 2*mem.MB {
		panic(fmt.Sprintf("phys: slab object too large: %d", size))
	}
	if s.chunkLen-s.chunkOff < size {
		if !s.refill() {
			return 0, false
		}
	}
	if s.chunkLen-s.chunkOff < size {
		return 0, false
	}
	pa := s.chunk + mem.PAddr(s.chunkOff)
	s.chunkOff += size
	return pa, true
}
