package pagetable

import (
	"errors"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

// HDC is the open-addressing hashed page table of Yaniv & Tsafrir
// ("Hash, Don't Cache (the page table)", SIGMETRICS'16): a single global
// table (4 GB in Table 4) of 64-byte buckets, each holding a cluster of
// 8 PTEs for 8 consecutive virtual pages. A walk hashes the cluster VPN
// and probes linearly — one memory access in the common case, which is
// why HDC both shortens walks (Fig. 13) and reduces DRAM row-buffer
// conflicts (Fig. 14) relative to radix. On the host, clusters come
// from arena chunks and the slot maps are plain maps, all of which a
// pooled table (NewHDCWith) takes from and gives back to a recycle.Pool.
type HDC struct {
	sub   [2]*hdcTable // 4K, 2M
	pages uint64
}

const hdcClusterPTEs = 8

type hdcCluster struct {
	cvpn    uint64
	used    [hdcClusterPTEs]bool
	entries [hdcClusterPTEs]Entry
	n       int
}

// Pool keys for a table's clusters (arena chunks of 16 doubling to 64;
// clusters are never freed within a table's lifetime) and its two slot
// maps.
const (
	hdcClusterChunkKey = "pagetable.hdc.clusterchunk"
	hdcSlotToKey       = "pagetable.hdc.slotto"
	hdcClusterSlotKey  = "pagetable.hdc.clusterslot"
)

type hdcTable struct {
	clusters arena[hdcCluster]
	pageSize mem.PageSize
	base     mem.PAddr
	buckets  uint64
	seed     uint64
	// slotTo maps probe-slot index -> cluster stored there.
	slotTo map[uint64]*hdcCluster
	// clusterSlot maps cluster VPN -> probe-slot index.
	clusterSlot map[uint64]uint64
	Probes      uint64
	Lookups     uint64
}

func newHDCTable(alloc FrameAllocator, ps mem.PageSize, tableBytes uint64, pool *recycle.Pool) (*hdcTable, error) {
	pages := tableBytes / (4 * mem.KB)
	base, ok := alloc.AllocContig(pages, 512)
	if !ok {
		return nil, errors.New("pagetable: cannot allocate HDC table")
	}
	return &hdcTable{
		clusters:    arena[hdcCluster]{pool: pool, key: hdcClusterChunkKey, min: 16, max: 64},
		pageSize:    ps,
		base:        base,
		buckets:     tableBytes / mem.CacheLineBytes,
		seed:        0xD0C5EED ^ uint64(ps),
		slotTo:      recycle.Map[uint64, *hdcCluster](pool, hdcSlotToKey),
		clusterSlot: recycle.Map[uint64, uint64](pool, hdcClusterSlotKey),
	}, nil
}

func (t *hdcTable) slotPA(slot uint64) mem.PAddr {
	return t.base + mem.PAddr(slot*mem.CacheLineBytes)
}

func (t *hdcTable) home(cvpn uint64) uint64 {
	return xrand.Hash64(cvpn, t.seed) % t.buckets
}

// find returns the cluster and probe count; out (optional) records the
// probed bucket addresses.
func (t *hdcTable) find(cvpn uint64, out *WalkResult) (*hdcCluster, bool) {
	t.Lookups++
	slot := t.home(cvpn)
	for i := uint64(0); i < t.buckets; i++ {
		s := (slot + i) % t.buckets
		t.Probes++
		if out != nil {
			out.push(t.slotPA(s), 0)
		}
		c, occupied := t.slotTo[s]
		if !occupied {
			return nil, false // open slot terminates the probe sequence
		}
		if c.cvpn == cvpn {
			return c, true
		}
	}
	return nil, false
}

func (t *hdcTable) findOrCreate(cvpn uint64, k instrument.KernelMem) *hdcCluster {
	slot := t.home(cvpn)
	for i := uint64(0); ; i++ {
		s := (slot + i) % t.buckets
		k.Load(t.slotPA(s))
		c, occupied := t.slotTo[s]
		if occupied && c.cvpn == cvpn {
			return c
		}
		if !occupied {
			c = t.clusters.get()
			c.cvpn = cvpn
			t.slotTo[s] = c
			t.clusterSlot[cvpn] = s
			return c
		}
	}
}

// NewHDCWith builds the global open-addressing table (4 GB when
// tableBytes is 0, split between the 4 KB and 2 MB page sizes, probed
// after perfect page-size resolution), drawing cluster chunks and slot
// maps from pool (nil pool = fresh allocations). It fails when alloc
// has no contiguous run of frames left for a sub-table.
func NewHDCWith(alloc FrameAllocator, tableBytes uint64, pool *recycle.Pool) (*HDC, error) {
	if tableBytes == 0 {
		tableBytes = 4 * mem.GB
	}
	small, err := newHDCTable(alloc, mem.Page4K, tableBytes*7/8, pool)
	if err != nil {
		return nil, err
	}
	large, err := newHDCTable(alloc, mem.Page2M, tableBytes/8, pool)
	if err != nil {
		return nil, err
	}
	return &HDC{sub: [2]*hdcTable{small, large}}, nil
}

// Recycle hands the table's cluster chunks and slot maps back to pool,
// scrubbed to their empty state. The table must not be used afterwards.
func (p *HDC) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, t := range p.sub {
		t.clusters.recycle(pool)
		recycle.PutMap(pool, hdcSlotToKey, t.slotTo)
		recycle.PutMap(pool, hdcClusterSlotKey, t.clusterSlot)
	}
	*p = HDC{}
}

// Kind implements PageTable.
func (p *HDC) Kind() string { return "hdc" }

func (p *HDC) tableFor(s mem.PageSize) *hdcTable {
	if s == mem.Page2M {
		return p.sub[1]
	}
	return p.sub[0]
}

func clusterKey(t *hdcTable, va mem.VAddr) (cvpn uint64, idx int) {
	vpn := t.pageSize.VPN(va)
	return vpn / hdcClusterPTEs, int(vpn % hdcClusterPTEs)
}

// Walk implements PageTable.
func (p *HDC) Walk(va mem.VAddr) WalkResult {
	var out WalkResult
	for _, t := range []*hdcTable{p.sub[1], p.sub[0]} {
		cvpn, idx := clusterKey(t, va)
		if c, ok := t.find(cvpn, nil); ok && c.used[idx] {
			t.find(cvpn, &out)
			out.Entry = c.entries[idx]
			out.Found = true
			return out
		}
	}
	// Miss: the walker probes the 4K table before faulting.
	cvpn, _ := clusterKey(p.sub[0], va)
	p.sub[0].find(cvpn, &out)
	return out
}

// Lookup implements PageTable.
func (p *HDC) Lookup(va mem.VAddr) (Entry, bool) {
	for _, t := range []*hdcTable{p.sub[1], p.sub[0]} {
		cvpn, idx := clusterKey(t, va)
		if c, ok := t.find(cvpn, nil); ok && c.used[idx] {
			return c.entries[idx], true
		}
	}
	return Entry{}, false
}

// Insert implements PageTable.
func (p *HDC) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
	if e.Size == mem.Page1G {
		return ErrOutOfMemory{What: "1GB pages unsupported by HDC"}
	}
	t := p.tableFor(e.Size)
	cvpn, idx := clusterKey(t, va)
	c := t.findOrCreate(cvpn, k)
	if !c.used[idx] {
		c.n++
		p.pages++
	}
	c.used[idx] = true
	c.entries[idx] = e
	k.Store(t.slotPA(t.clusterSlot[cvpn]))
	return nil
}

// Update implements PageTable.
func (p *HDC) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
	t := p.tableFor(e.Size)
	cvpn, idx := clusterKey(t, va)
	c, ok := t.find(cvpn, nil)
	if !ok || !c.used[idx] {
		return false
	}
	c.entries[idx] = e
	k.Store(t.slotPA(t.clusterSlot[cvpn]))
	return true
}

// Remove implements PageTable.
func (p *HDC) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	for _, t := range []*hdcTable{p.sub[1], p.sub[0]} {
		cvpn, idx := clusterKey(t, va)
		if c, ok := t.find(cvpn, nil); ok && c.used[idx] {
			old := c.entries[idx]
			c.used[idx] = false
			c.n--
			p.pages--
			k.Store(t.slotPA(t.clusterSlot[cvpn]))
			// Clusters are not compacted on emptiness (tombstone-free
			// deletion would break linear probing); matching HDC's design.
			return old, true
		}
	}
	return Entry{}, false
}

// MappedPages implements PageTable.
func (p *HDC) MappedPages() uint64 { return p.pages }
