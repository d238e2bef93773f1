package pagetable

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// ECH is an Elastic Cuckoo Hash page table (Skarlatos et al., ASPLOS'20):
// d independent ways (nests), each a physically contiguous array of
// 8-byte entries indexed by a per-way hash of the VPN. A walk probes the
// nests in order until it finds the translation — one memory access per
// probed nest, which is why ECH raises DRAM interference in Fig. 14 —
// while a perfect cuckoo-walk cache (the paper's configuration) resolves
// the page size so only the correct per-size table is probed.
//
// The table is *elastic*: when occupancy passes the threshold it doubles,
// and entries migrate gradually (a few per insert), so lookups during
// migration probe both generations — the hash-collision pathology that
// makes ECH slower on RND in Fig. 15.
type ECH struct {
	alloc  FrameAllocator
	tables [2]*cuckooTable // 4K, 2M
	pages  uint64
}

const (
	echWays         = 4
	echInitSlots    = 8 << 10 // 8K entries/way (Table 4)
	echMaxKicks     = 16
	echLoadFactor   = 0.6
	echMigratePerOp = 8
)

type cuckooSlot struct {
	vpn  uint64
	e    Entry
	used bool
}

type cuckooArray struct {
	slots [][]cuckooSlot // [way][index]
	base  []mem.PAddr    // physical base per way
	size  uint64
	used  uint64
	seeds [echWays]uint64

	// Orphan entry displaced by a failed insert (resolved by resize).
	orphanVPN uint64
	orphanE   Entry
	hasOrphan bool
}

type cuckooTable struct {
	alloc      FrameAllocator
	pageSize   mem.PageSize
	cur        *cuckooArray
	old        *cuckooArray // non-nil during gradual migration
	oldWay     int
	oldPos     uint64
	Resizes    uint64
	Kicks      uint64
	Migrations uint64
}

func newCuckooArray(alloc FrameAllocator, size uint64, gen uint64) *cuckooArray {
	a := &cuckooArray{size: size}
	a.slots = make([][]cuckooSlot, echWays)
	a.base = make([]mem.PAddr, echWays)
	for w := 0; w < echWays; w++ {
		a.slots[w] = make([]cuckooSlot, size)
		pages := mem.AlignUp(size*8, 4*mem.KB) / (4 * mem.KB)
		pa, ok := alloc.AllocContig(pages, 1)
		if !ok {
			panic("pagetable: cannot allocate ECH way")
		}
		a.base[w] = pa
		a.seeds[w] = xrand.Hash64(uint64(w)+gen*16+1, 0xEC4)
	}
	return a
}

func (a *cuckooArray) idx(way int, vpn uint64) uint64 {
	return xrand.Hash64(vpn, a.seeds[way]) % a.size
}

func (a *cuckooArray) slotPA(way int, idx uint64) mem.PAddr {
	return a.base[way] + mem.PAddr(idx*8)
}

func newCuckooTable(alloc FrameAllocator, ps mem.PageSize) *cuckooTable {
	return &cuckooTable{alloc: alloc, pageSize: ps, cur: newCuckooArray(alloc, echInitSlots, 0)}
}

// lookup returns the entry for vpn, recording each probed nest in steps.
func (t *cuckooTable) lookup(vpn uint64, out *WalkResult) (Entry, bool) {
	for w := 0; w < echWays; w++ {
		i := t.cur.idx(w, vpn)
		if out != nil {
			out.push(t.cur.slotPA(w, i), 0)
		}
		s := &t.cur.slots[w][i]
		if s.used && s.vpn == vpn {
			return s.e, true
		}
	}
	if t.old != nil {
		for w := 0; w < echWays; w++ {
			i := t.old.idx(w, vpn)
			if out != nil {
				out.push(t.old.slotPA(w, i), 0)
			}
			s := &t.old.slots[w][i]
			if s.used && s.vpn == vpn {
				return s.e, true
			}
		}
	}
	return Entry{}, false
}

// insert places (vpn,e), cuckoo-kicking as needed; returns false if a
// resize is required.
func (a *cuckooArray) insert(vpn uint64, e Entry, k instrument.KernelMem, kicks *uint64) bool {
	cvpn, ce := vpn, e
	way := int(vpn % echWays)
	for kick := 0; kick <= echMaxKicks; kick++ {
		// Probe all ways for a free slot or an existing mapping first.
		for w := 0; w < echWays; w++ {
			i := a.idx(w, cvpn)
			s := &a.slots[w][i]
			k.Load(a.slotPA(w, i))
			if s.used && s.vpn == cvpn {
				s.e = ce
				k.Store(a.slotPA(w, i))
				return true
			}
			if !s.used {
				*s = cuckooSlot{vpn: cvpn, e: ce, used: true}
				a.used++
				k.Store(a.slotPA(w, i))
				return true
			}
		}
		// All ways occupied: evict from the rotating way and re-place.
		i := a.idx(way, cvpn)
		s := &a.slots[way][i]
		evVPN, evE := s.vpn, s.e
		*s = cuckooSlot{vpn: cvpn, e: ce, used: true}
		k.Store(a.slotPA(way, i))
		cvpn, ce = evVPN, evE
		way = (way + 1) % echWays
		*kicks++
	}
	// Failed after max kicks: put the displaced entry back is impossible
	// without loss, so signal resize; caller re-inserts the orphan.
	a.orphanVPN, a.orphanE, a.hasOrphan = cvpn, ce, true
	return false
}

// remove deletes vpn, returning the old entry.
func (t *cuckooTable) remove(vpn uint64, k instrument.KernelMem) (Entry, bool) {
	for _, a := range []*cuckooArray{t.cur, t.old} {
		if a == nil {
			continue
		}
		for w := 0; w < echWays; w++ {
			i := a.idx(w, vpn)
			s := &a.slots[w][i]
			k.Load(a.slotPA(w, i))
			if s.used && s.vpn == vpn {
				old := s.e
				*s = cuckooSlot{}
				a.used--
				k.Store(a.slotPA(w, i))
				return old, true
			}
		}
	}
	return Entry{}, false
}

// migrateSome moves up to n entries from the old generation into the
// current one (gradual resizing).
func (t *cuckooTable) migrateSome(n int, k instrument.KernelMem) {
	for moved := 0; t.old != nil && moved < n; {
		if t.oldPos >= t.old.size {
			t.oldPos = 0
			t.oldWay++
			if t.oldWay >= echWays {
				t.old = nil // migration complete
				break
			}
			continue
		}
		s := &t.old.slots[t.oldWay][t.oldPos]
		if s.used {
			var kicks uint64
			t.cur.insert(s.vpn, s.e, k, &kicks)
			t.Kicks += kicks
			s.used = false
			t.old.used--
			moved++
			t.Migrations++
		}
		t.oldPos++
	}
}

func (t *cuckooTable) resize(k instrument.KernelMem) {
	// Finish any in-flight migration synchronously first.
	for t.old != nil {
		t.migrateSome(1024, k)
	}
	t.Resizes++
	t.old = t.cur
	t.oldWay, t.oldPos = 0, 0
	t.cur = newCuckooArray(t.alloc, t.old.size*2, t.Resizes)
	k.ALU(256) // table allocation + bookkeeping
}

func (t *cuckooTable) insert(vpn uint64, e Entry, k instrument.KernelMem) {
	t.migrateSome(echMigratePerOp, k)
	if float64(t.cur.used) > echLoadFactor*float64(t.cur.size*echWays) && t.old == nil {
		t.resize(k)
	}
	for {
		var kicks uint64
		ok := t.cur.insert(vpn, e, k, &kicks)
		t.Kicks += kicks
		if ok {
			return
		}
		t.resize(k)
		vpn, e = t.cur.orphanVPN, t.cur.orphanE
		// orphan came from the pre-resize generation, which resize() just
		// made t.old; its counters were already adjusted by insert().
	}
}

// NewECH builds an elastic cuckoo page table supporting 4 KB and 2 MB
// pages (one cuckoo table per size, probed after perfect page-size
// resolution per the Table 4 cuckoo-walk-cache configuration).
func NewECH(alloc FrameAllocator) *ECH {
	return &ECH{
		alloc: alloc,
		tables: [2]*cuckooTable{
			newCuckooTable(alloc, mem.Page4K),
			newCuckooTable(alloc, mem.Page2M),
		},
	}
}

// Kind implements PageTable.
func (p *ECH) Kind() string { return "ech" }

func (p *ECH) tableFor(s mem.PageSize) *cuckooTable {
	if s == mem.Page2M {
		return p.tables[1]
	}
	return p.tables[0]
}

// Walk implements PageTable: the hardware cuckoo walker probes *all*
// nests of the table in parallel (the page size is resolved by the
// perfect CWC), so every walk touches one line per nest — low latency
// (max of the parallel accesses, applied by the HashWalker), high memory
// traffic (the Fig. 14 row-buffer interference).
func (p *ECH) Walk(va mem.VAddr) WalkResult {
	var out WalkResult
	// The CWC resolves the page size: find which table holds it.
	for _, t := range []*cuckooTable{p.tables[1], p.tables[0]} {
		vpn := t.pageSize.VPN(va)
		if e, ok := t.lookup(vpn, nil); ok {
			t.pushAllNests(vpn, &out)
			out.Entry = e
			out.Found = true
			return out
		}
	}
	// Miss: the walker probes the 4K nests before raising the fault.
	p.tables[0].pushAllNests(mem.Page4K.VPN(va), &out)
	return out
}

// pushAllNests records the parallel probe set for vpn: one slot per way
// of the current generation, plus the old generation during migration.
func (t *cuckooTable) pushAllNests(vpn uint64, out *WalkResult) {
	for w := 0; w < echWays; w++ {
		out.push(t.cur.slotPA(w, t.cur.idx(w, vpn)), 0)
	}
	if t.old != nil {
		for w := 0; w < echWays; w++ {
			out.push(t.old.slotPA(w, t.old.idx(w, vpn)), 0)
		}
	}
}

// Lookup implements PageTable.
func (p *ECH) Lookup(va mem.VAddr) (Entry, bool) {
	for _, t := range []*cuckooTable{p.tables[1], p.tables[0]} {
		if e, ok := t.lookup(t.pageSize.VPN(va), nil); ok {
			return e, true
		}
	}
	return Entry{}, false
}

// Insert implements PageTable.
func (p *ECH) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
	if e.Size == mem.Page1G {
		return ErrOutOfMemory{What: "1GB pages unsupported by ECH"}
	}
	t := p.tableFor(e.Size)
	vpn := t.pageSize.VPN(va)
	if _, exists := t.lookup(vpn, nil); !exists {
		p.pages++
	}
	t.insert(vpn, e, k)
	return nil
}

// Update implements PageTable.
func (p *ECH) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
	t := p.tableFor(e.Size)
	vpn := t.pageSize.VPN(va)
	if _, ok := t.lookup(vpn, nil); !ok {
		return false
	}
	t.insert(vpn, e, k)
	return true
}

// Remove implements PageTable.
func (p *ECH) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	for _, t := range []*cuckooTable{p.tables[1], p.tables[0]} {
		if e, ok := t.remove(t.pageSize.VPN(va), k); ok {
			p.pages--
			return e, true
		}
	}
	return Entry{}, false
}

// MappedPages implements PageTable.
func (p *ECH) MappedPages() uint64 { return p.pages }

// Resizes returns the total resize count across sub-tables (test hook).
func (p *ECH) Resizes() uint64 { return p.tables[0].Resizes + p.tables[1].Resizes }
