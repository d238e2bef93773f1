package pagetable

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
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
//
// On the host, each slot is a 4-byte index into its generation's record
// store, and a pooled table (NewECHWith) takes its slot pages from and
// gives them back to a recycle.Pool.
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
	echPageSlots    = 512 // host slots per page: 2 KiB of record indices
	echRecChunk     = 128 // records per chunk: 4 KiB
)

// Pool key for a table's slot pages; a worker parks at most 64, 128 KiB.
// Records are not pooled: parking them as well raised the live heap of
// a sweep worker enough to move replay-grid's heap peak.
const echSlotPageKey = "pagetable.ech.slotpage"

// cuckooSlot is the record of one occupied nest slot. key is vpn+1, so
// the zero record is empty and a record is 32 bytes. A free record's
// key holds the index+1 of the next free record.
type cuckooSlot struct {
	key uint64
	e   Entry
}

type cuckooArray struct {
	// pages holds all ways, way-major (way w at slots [w*size,
	// (w+1)*size)), in pages of echPageSlots. A slot is 0 when empty,
	// or the index+1 of its record in recs. The directory is made on
	// the generation's first insert and each page on the first write
	// into it; a slot on an absent page is empty. Probes of absent
	// slots still cost the walker and the kernel the same accesses at
	// the reserved physical slots.
	pages []*[echPageSlots]uint32
	// recs holds the records in chunks of echRecChunk, made as needed;
	// nrecs have been handed out, and free heads the list of emptied
	// ones.
	recs  []*[echRecChunk]cuckooSlot
	nrecs uint32
	free  uint32
	pool  *recycle.Pool
	base  [echWays]mem.PAddr // physical base per way
	size  uint64
	used  uint64
	seeds [echWays]uint64

	// Orphan entry displaced by a failed insert (resolved by resize).
	orphanVPN uint64
	orphanE   Entry
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

// newCuckooArray reserves the generation's simulated frames now, so the
// physical allocator sees every generation at construction; the host
// slot pages and records wait for their first write.
func newCuckooArray(alloc FrameAllocator, size uint64, gen uint64, pool *recycle.Pool) *cuckooArray {
	a := &cuckooArray{size: size, pool: pool}
	for w := 0; w < echWays; w++ {
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

// page returns the page holding slot (way, idx), or nil if it is
// absent. Every generation's size is a multiple of echPageSlots, so a
// page never straddles two ways and idx%echPageSlots is the in-page
// offset.
func (a *cuckooArray) page(way int, idx uint64) *[echPageSlots]uint32 {
	if a.pages == nil {
		return nil
	}
	return a.pages[(uint64(way)*a.size+idx)/echPageSlots]
}

// rec returns the record with index r-1.
func (a *cuckooArray) rec(r uint32) *cuckooSlot {
	return &a.recs[(r-1)/echRecChunk][(r-1)%echRecChunk]
}

// at returns the record of slot (way, idx); an empty slot, or one on an
// absent page, reads as the zero record.
func (a *cuckooArray) at(way int, idx uint64) cuckooSlot {
	if p := a.page(way, idx); p != nil {
		if r := p[idx%echPageSlots]; r != 0 {
			return *a.rec(r)
		}
	}
	return cuckooSlot{}
}

// slot returns the record of slot (way, idx) for writing, making its
// page (and the page directory) if absent and taking a zero record if
// the slot is empty. Every slot write goes through here.
func (a *cuckooArray) slot(way int, idx uint64) *cuckooSlot {
	if a.pages == nil {
		a.pages = make([]*[echPageSlots]uint32, echWays*a.size/echPageSlots)
	}
	p := &a.pages[(uint64(way)*a.size+idx)/echPageSlots]
	if *p == nil {
		if v, ok := a.pool.Take(echSlotPageKey); ok {
			*p = v.(*[echPageSlots]uint32)
		} else {
			*p = new([echPageSlots]uint32)
		}
	}
	s := &(*p)[idx%echPageSlots]
	if *s == 0 {
		*s = a.take()
	}
	return a.rec(*s)
}

// take hands out a zero record, the head of the free list if there is
// one, and returns its index+1.
func (a *cuckooArray) take() uint32 {
	if r := a.free; r != 0 {
		a.free = uint32(a.rec(r).key)
		*a.rec(r) = cuckooSlot{}
		return r
	}
	if a.nrecs%echRecChunk == 0 {
		a.recs = append(a.recs, new([echRecChunk]cuckooSlot))
	}
	a.nrecs++
	return a.nrecs
}

// empty clears the occupied slot (way, idx) and returns its record to
// the free list.
func (a *cuckooArray) empty(way int, idx uint64) {
	p := a.page(way, idx)
	r := p[idx%echPageSlots]
	p[idx%echPageSlots] = 0
	*a.rec(r) = cuckooSlot{key: uint64(a.free)}
	a.free = r
	a.used--
}

// recycle scrubs the generation's slot pages and parks them in pool.
func (a *cuckooArray) recycle(pool *recycle.Pool) {
	for _, p := range a.pages {
		if p != nil {
			clear(p[:])
			pool.Give(echSlotPageKey, p)
		}
	}
	a.pages = nil
}

// recycle parks the storage of the table's generations in pool.
func (t *cuckooTable) recycle(pool *recycle.Pool) {
	for _, a := range [2]*cuckooArray{t.cur, t.old} {
		if a != nil {
			a.recycle(pool)
		}
	}
}

func newCuckooTable(alloc FrameAllocator, ps mem.PageSize, pool *recycle.Pool) *cuckooTable {
	return &cuckooTable{alloc: alloc, pageSize: ps, cur: newCuckooArray(alloc, echInitSlots, 0, pool)}
}

// lookup returns the entry for vpn, recording each probed nest in steps.
func (t *cuckooTable) lookup(vpn uint64, out *WalkResult) (Entry, bool) {
	for _, a := range [2]*cuckooArray{t.cur, t.old} {
		if a == nil {
			continue
		}
		for w := 0; w < echWays; w++ {
			i := a.idx(w, vpn)
			if out != nil {
				out.push(a.slotPA(w, i), 0)
			}
			if s := a.at(w, i); s.key == vpn+1 {
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
			key := a.at(w, i).key
			k.Load(a.slotPA(w, i))
			if key == cvpn+1 {
				a.slot(w, i).e = ce
				k.Store(a.slotPA(w, i))
				return true
			}
			if key == 0 {
				*a.slot(w, i) = cuckooSlot{key: cvpn + 1, e: ce}
				a.used++
				k.Store(a.slotPA(w, i))
				return true
			}
		}
		// All ways occupied: evict from the rotating way and re-place.
		i := a.idx(way, cvpn)
		s := a.slot(way, i)
		evVPN, evE := s.key-1, s.e
		*s = cuckooSlot{key: cvpn + 1, e: ce}
		k.Store(a.slotPA(way, i))
		cvpn, ce = evVPN, evE
		way = (way + 1) % echWays
		*kicks++
	}
	// Failed after max kicks: put the displaced entry back is impossible
	// without loss, so signal resize; caller re-inserts the orphan.
	a.orphanVPN, a.orphanE = cvpn, ce
	return false
}

// remove deletes vpn, returning the old entry.
func (t *cuckooTable) remove(vpn uint64, k instrument.KernelMem) (Entry, bool) {
	for _, a := range [2]*cuckooArray{t.cur, t.old} {
		if a == nil {
			continue
		}
		for w := 0; w < echWays; w++ {
			i := a.idx(w, vpn)
			k.Load(a.slotPA(w, i))
			if old := a.at(w, i); old.key == vpn+1 {
				a.empty(w, i)
				k.Store(a.slotPA(w, i))
				return old.e, true
			}
		}
	}
	return Entry{}, false
}

// migrateSome moves up to n entries from the old generation into the
// current one (gradual resizing). Absent pages hold only empty slots,
// so the scan steps over them whole.
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
		if t.old.page(t.oldWay, t.oldPos) == nil {
			t.oldPos += echPageSlots - t.oldPos%echPageSlots
			continue
		}
		if s := t.old.at(t.oldWay, t.oldPos); s.key != 0 {
			var kicks uint64
			t.cur.insert(s.key-1, s.e, k, &kicks)
			t.Kicks += kicks
			t.old.empty(t.oldWay, t.oldPos)
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
	t.cur = newCuckooArray(t.alloc, t.old.size*2, t.Resizes, t.old.pool)
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

// NewECHWith builds an elastic cuckoo page table supporting 4 KB and
// 2 MB pages (one cuckoo table per size, probed after perfect page-size
// resolution per the Table 4 cuckoo-walk-cache configuration), drawing
// slot pages from pool (nil pool = fresh allocations).
func NewECHWith(alloc FrameAllocator, pool *recycle.Pool) *ECH {
	return &ECH{
		alloc: alloc,
		tables: [2]*cuckooTable{
			newCuckooTable(alloc, mem.Page4K, pool),
			newCuckooTable(alloc, mem.Page2M, pool),
		},
	}
}

// Recycle hands the table's slot pages back to pool, scrubbed to their
// empty state. The table must not be used afterwards.
func (p *ECH) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, t := range p.tables {
		t.recycle(pool)
	}
	*p = ECH{}
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
