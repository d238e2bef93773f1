// Package tlb implements the translation-caching hardware structures of
// the MMU designs in Table 2/Table 4: multi-page-size set-associative
// TLBs, page-walk caches, the range lookaside buffer of RMM, the VMA
// lookaside buffers of Midgard, and small generic metadata caches (used
// for Utopia's TAR/SF caches and ECH's cuckoo-walk caches).
package tlb

import "repro/internal/mem"

// Entry is one cached translation.
type Entry struct {
	VPN   uint64
	Size  mem.PageSize
	Frame mem.PAddr
	ASID  uint16
}

// Stats counts TLB activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Shootdowns uint64
}

// TLB is a set-associative translation lookaside buffer. It may hold a
// single page size (L1 DTLBs in Table 4 are split per size) or multiple
// (the unified 2048-entry L2 STLB); lookups probe each supported size.
//
// Entries are stored structure-of-arrays so the way scan in Lookup —
// the hottest loop in the simulator after the cache scans — walks
// densely packed words: vpns holds the virtual page number, metas packs
// valid | size | ASID into one comparable uint32, and frames/lru hold
// the translation and recency state touched only on a hit.
type TLB struct {
	name    string
	sets    int
	ways    int
	latency uint64
	sizes   []mem.PageSize
	vpns    []uint64
	metas   []uint32 // asid<<8 | size<<1 | valid
	frames  []mem.PAddr
	lru     []uint64
	tick    uint64
	stats   Stats
}

func packMeta(asid uint16, ps mem.PageSize) uint32 {
	return uint32(asid)<<8 | uint32(ps)<<1 | 1
}

// New builds a TLB with the given total entries and associativity
// supporting the listed page sizes.
func New(name string, entries, ways int, latency uint64, sizes ...mem.PageSize) *TLB {
	if len(sizes) == 0 {
		sizes = []mem.PageSize{mem.Page4K}
	}
	sets := entries / ways
	if sets == 0 || entries%ways != 0 {
		panic("tlb: bad geometry " + name)
	}
	return &TLB{
		name:    name,
		sets:    sets,
		ways:    ways,
		latency: latency,
		sizes:   sizes,
		vpns:    make([]uint64, entries),
		metas:   make([]uint32, entries),
		frames:  make([]mem.PAddr, entries),
		lru:     make([]uint64, entries),
	}
}

// Name returns the TLB's name.
func (t *TLB) Name() string { return t.name }

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() uint64 { return t.latency }

// Stats returns the accumulated statistics.
func (t *TLB) Stats() *Stats { return &t.stats }

func (t *TLB) setOf(vpn uint64) int { return int(vpn % uint64(t.sets)) }

// Lookup probes the TLB for va and returns the matching entry.
func (t *TLB) Lookup(va mem.VAddr, asid uint16) (Entry, bool) {
	t.tick++
	for _, ps := range t.sizes {
		vpn := ps.VPN(va)
		base := t.setOf(vpn) * t.ways
		want := packMeta(asid, ps)
		for w := base; w < base+t.ways; w++ {
			if t.vpns[w] == vpn && t.metas[w] == want {
				t.lru[w] = t.tick
				t.stats.Hits++
				return Entry{VPN: vpn, Size: ps, Frame: t.frames[w], ASID: asid}, true
			}
		}
	}
	t.stats.Misses++
	return Entry{}, false
}

// Supports reports whether the TLB can hold entries of page size ps.
func (t *TLB) Supports(ps mem.PageSize) bool {
	for _, s := range t.sizes {
		if s == ps {
			return true
		}
	}
	return false
}

// Insert fills an entry (LRU replacement within the set).
func (t *TLB) Insert(e Entry) {
	if !t.Supports(e.Size) {
		return
	}
	t.tick++
	t.stats.Fills++
	base := t.setOf(e.VPN) * t.ways
	want := packMeta(e.ASID, e.Size)
	victim := base
	oldest := ^uint64(0)
	for w := base; w < base+t.ways; w++ {
		if t.metas[w]&1 == 0 {
			victim = w
			break
		}
		if t.vpns[w] == e.VPN && t.metas[w] == want {
			t.frames[w] = e.Frame
			t.lru[w] = t.tick
			return
		}
		if t.lru[w] < oldest {
			oldest = t.lru[w]
			victim = w
		}
	}
	t.vpns[victim] = e.VPN
	t.metas[victim] = want
	t.frames[victim] = e.Frame
	t.lru[victim] = t.tick
}

// InvalidateVA drops any entry translating va (TLB shootdown).
func (t *TLB) InvalidateVA(va mem.VAddr, asid uint16) {
	for _, ps := range t.sizes {
		vpn := ps.VPN(va)
		base := t.setOf(vpn) * t.ways
		want := packMeta(asid, ps)
		for w := base; w < base+t.ways; w++ {
			if t.vpns[w] == vpn && t.metas[w] == want {
				t.metas[w] = 0
				t.stats.Shootdowns++
			}
		}
	}
}

// InvalidateRange drops every entry of asid whose page overlaps
// [start, start+bytes): the shootdown of one large page in a TLB that
// may cache it as smaller pages. It scans every entry once, so its cost
// does not grow with the range.
func (t *TLB) InvalidateRange(start mem.VAddr, bytes uint64, asid uint16) {
	lo, hi := uint64(start), uint64(start)+bytes
	for i, m := range t.metas {
		if m&1 == 0 || uint16(m>>8) != asid {
			continue
		}
		ps := mem.PageSize(m >> 1 & 0x7f)
		if va := t.vpns[i] << ps.Shift(); va < hi && va+ps.Bytes() > lo {
			t.metas[i] = 0
			t.stats.Shootdowns++
		}
	}
}

// InvalidateAll flushes the TLB.
func (t *TLB) InvalidateAll() {
	for i := range t.metas {
		t.metas[i] = 0
	}
	t.stats.Shootdowns++
}

// InvalidateASID drops every entry tagged with asid — the ASID-wide
// shootdown issued when a process exits (or its ASID is about to be
// recycled). Entries of other address spaces are retained.
func (t *TLB) InvalidateASID(asid uint16) {
	dropped := false
	for i := range t.metas {
		if t.metas[i]&1 == 1 && t.metas[i]>>8 == uint32(asid) {
			t.metas[i] = 0
			dropped = true
		}
	}
	if dropped {
		t.stats.Shootdowns++
	}
}

// Occupancy returns the number of valid entries.
func (t *TLB) Occupancy() int {
	n := 0
	for i := range t.metas {
		if t.metas[i]&1 == 1 {
			n++
		}
	}
	return n
}

// OccupancyASID returns the number of valid entries tagged with asid.
func (t *TLB) OccupancyASID(asid uint16) int {
	n := 0
	for i := range t.metas {
		if t.metas[i]&1 == 1 && t.metas[i]>>8 == uint32(asid) {
			n++
		}
	}
	return n
}
