// Package utopia implements the Utopia hybrid restrictive/flexible
// virtual-to-physical mapping (Kanellopoulos et al., MICRO'23), evaluated
// in Use Cases 2–4 (§7.5, §7.6.1, Figs. 16, 19, 20).
//
// A RestSeg is a set-associative physical memory segment: a virtual page
// hashes to a set and may live in any of its ways. Address translation
// inside a RestSeg needs only the set function plus a tag match (served
// by the TAR/SF caches or one memory access to the virtual tag array),
// and page allocation is a cheap hash placement — but a full set forces
// either a fallback to the flexible segment (radix-mapped) or an
// eviction, which is the swapping pathology of Fig. 20.
package utopia

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// RestSeg is one restrictive segment.
type RestSeg struct {
	Name      string
	PageSize  mem.PageSize
	SizeBytes uint64
	Ways      int
	Sets      uint64
	Base      mem.PAddr // data frames
	TagBase   mem.PAddr // virtual tag array (RSW metadata)
	seed      uint64

	owner []uint64 // sets*ways; owner VPN+1, 0 = free
	used  uint64

	// Stats
	Allocs     uint64
	AllocFails uint64 // set full
	Evictions  uint64
}

// ContigAllocator provides physically contiguous carve-outs (implemented
// by phys.Mem).
type ContigAllocator interface {
	AllocContig(pages, alignPages uint64) (mem.PAddr, bool)
}

// NewRestSeg carves a restrictive segment of sizeBytes with the given
// associativity and page size out of physical memory, plus its virtual
// tag array (8 B of metadata per frame).
func NewRestSeg(name string, sizeBytes uint64, ways int, ps mem.PageSize, alloc ContigAllocator) (*RestSeg, error) {
	frames := sizeBytes / ps.Bytes()
	if frames == 0 || frames%uint64(ways) != 0 {
		return nil, fmt.Errorf("utopia: segment %s: %d frames not divisible by %d ways", name, frames, ways)
	}
	pages := sizeBytes / (4 * mem.KB)
	base, ok := alloc.AllocContig(pages, 512)
	if !ok {
		return nil, fmt.Errorf("utopia: cannot carve %d-byte RestSeg", sizeBytes)
	}
	tagBytes := mem.AlignUp(frames*8, 4*mem.KB)
	tagBase, ok := alloc.AllocContig(tagBytes/(4*mem.KB), 1)
	if !ok {
		return nil, fmt.Errorf("utopia: cannot carve tag array")
	}
	return &RestSeg{
		Name:      name,
		PageSize:  ps,
		SizeBytes: sizeBytes,
		Ways:      ways,
		Sets:      frames / uint64(ways),
		Base:      base,
		TagBase:   tagBase,
		seed:      0x07091A ^ uint64(ps),
		owner:     make([]uint64, frames),
	}, nil
}

// SetOf returns the set index of vpn.
func (s *RestSeg) SetOf(vpn uint64) uint64 { return xrand.Hash64(vpn, s.seed) % s.Sets }

// FramePA returns the physical address of (set, way).
func (s *RestSeg) FramePA(set uint64, way int) mem.PAddr {
	return s.Base + mem.PAddr((set*uint64(s.Ways)+uint64(way))*s.PageSize.Bytes())
}

// TagPA returns the address of the virtual tag entry for (set, way);
// tags for one set share cache lines, giving the RSW its locality — and
// losing it when segments grow (the §7.5 observation about very large
// RestSegs).
func (s *RestSeg) TagPA(set uint64, way int) mem.PAddr {
	return s.TagBase + mem.PAddr((set*uint64(s.Ways)+uint64(way))*8)
}

// Lookup returns the way holding vpn.
func (s *RestSeg) Lookup(vpn uint64) (int, bool) {
	set := s.SetOf(vpn)
	base := set * uint64(s.Ways)
	for w := 0; w < s.Ways; w++ {
		if s.owner[base+uint64(w)] == vpn+1 {
			return w, true
		}
	}
	return 0, false
}

// Alloc places vpn into its set, returning the chosen way; fails when
// the set is full.
func (s *RestSeg) Alloc(vpn uint64) (int, bool) {
	set := s.SetOf(vpn)
	base := set * uint64(s.Ways)
	for w := 0; w < s.Ways; w++ {
		if s.owner[base+uint64(w)] == 0 {
			s.owner[base+uint64(w)] = vpn + 1
			s.used++
			s.Allocs++
			return w, true
		}
	}
	s.AllocFails++
	return 0, false
}

// VictimOf returns the (way, owner VPN) to evict from vpn's set — the
// SRRIP-approximating policy degenerates to round-robin here since the
// segment has no reuse counters in this model.
func (s *RestSeg) VictimOf(vpn uint64) (int, uint64) {
	set := s.SetOf(vpn)
	base := set * uint64(s.Ways)
	w := int(xrand.Hash64(vpn, s.Evictions) % uint64(s.Ways))
	return w, s.owner[base+uint64(w)] - 1
}

// Release frees the frame owned by vpn.
func (s *RestSeg) Release(vpn uint64) bool {
	set := s.SetOf(vpn)
	base := set * uint64(s.Ways)
	for w := 0; w < s.Ways; w++ {
		if s.owner[base+uint64(w)] == vpn+1 {
			s.owner[base+uint64(w)] = 0
			s.used--
			return true
		}
	}
	return false
}

// Evict force-frees (set, way) and returns the displaced VPN.
func (s *RestSeg) Evict(set uint64, way int) (uint64, bool) {
	idx := set*uint64(s.Ways) + uint64(way)
	if s.owner[idx] == 0 {
		return 0, false
	}
	vpn := s.owner[idx] - 1
	s.owner[idx] = 0
	s.used--
	s.Evictions++
	return vpn, true
}

// System is the full Utopia configuration: one or more RestSegs (probed
// in order) backed by a flexible segment managed by the conventional
// allocator and radix page table.
type System struct {
	Segs []*RestSeg
	// SwapOnFull forces eviction+swap instead of FlexSeg fallback when a
	// set is full (the Fig. 20 configuration).
	SwapOnFull bool
}

// SegFor returns the first segment matching the page size.
func (u *System) SegFor(ps mem.PageSize) *RestSeg {
	for _, s := range u.Segs {
		if s.PageSize == ps {
			return s
		}
	}
	return nil
}
