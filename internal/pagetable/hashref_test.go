package pagetable

// The hashed page tables as they were before they shared one shell
// (hashed): HDC and HT whole, and ECH's shell over the cuckoo tables,
// whose code the shell left as it was. TestHashedTablesMatchReference
// and FuzzHashedTables hold the shell to these bodies.

import (
	"errors"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

// refHDC is the open-addressing hashed page table of Yaniv & Tsafrir
// ("Hash, Don't Cache (the page table)", SIGMETRICS'16): a single global
// table (4 GB in Table 4) of 64-byte buckets, each holding a cluster of
// 8 PTEs for 8 consecutive virtual pages. A walk hashes the cluster VPN
// and probes linearly — one memory access in the common case, which is
// why HDC both shortens walks (Fig. 13) and reduces DRAM row-buffer
// conflicts (Fig. 14) relative to radix. On the host, clusters come
// from arena chunks and the slot maps are plain maps, all of which a
// pooled table (newRefHDC) takes from and gives back to a recycle.Pool.
type refHDC struct {
	sub   [2]*refHDCTable // 4K, 2M
	pages uint64
}

const refHDCClusterPTEs = 8

type refHDCCluster struct {
	cvpn    uint64
	used    [refHDCClusterPTEs]bool
	entries [refHDCClusterPTEs]Entry
	n       int
}

// Pool keys for a table's clusters (arena chunks of 16 doubling to 64;
// clusters are never freed within a table's lifetime) and its two slot
// maps.
const (
	refHDCClusterChunkKey = "pagetable.hdc.clusterchunk"
	refHDCSlotToKey       = "pagetable.hdc.slotto"
	refHDCClusterSlotKey  = "pagetable.hdc.clusterslot"
)

type refHDCTable struct {
	clusters arena[refHDCCluster]
	pageSize mem.PageSize
	base     mem.PAddr
	buckets  uint64
	seed     uint64
	// slotTo maps probe-slot index -> cluster stored there.
	slotTo map[uint64]*refHDCCluster
	// clusterSlot maps cluster VPN -> probe-slot index.
	clusterSlot map[uint64]uint64
	Probes      uint64
	Lookups     uint64
}

func newRefHDCTable(alloc FrameAllocator, ps mem.PageSize, tableBytes uint64, pool *recycle.Pool) (*refHDCTable, error) {
	pages := tableBytes / (4 * mem.KB)
	base, ok := alloc.AllocContig(pages, 512)
	if !ok {
		return nil, errors.New("pagetable: cannot allocate HDC table")
	}
	return &refHDCTable{
		clusters:    arena[refHDCCluster]{pool: pool, key: refHDCClusterChunkKey, min: 16, max: 64},
		pageSize:    ps,
		base:        base,
		buckets:     tableBytes / mem.CacheLineBytes,
		seed:        0xD0C5EED ^ uint64(ps),
		slotTo:      recycle.Map[uint64, *refHDCCluster](pool, refHDCSlotToKey),
		clusterSlot: recycle.Map[uint64, uint64](pool, refHDCClusterSlotKey),
	}, nil
}

func (t *refHDCTable) slotPA(slot uint64) mem.PAddr {
	return t.base + mem.PAddr(slot*mem.CacheLineBytes)
}

func (t *refHDCTable) home(cvpn uint64) uint64 {
	return xrand.Hash64(cvpn, t.seed) % t.buckets
}

// find returns the cluster and probe count; out (optional) records the
// probed bucket addresses.
func (t *refHDCTable) find(cvpn uint64, out *WalkResult) (*refHDCCluster, bool) {
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

func (t *refHDCTable) findOrCreate(cvpn uint64, k instrument.KernelMem) *refHDCCluster {
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

// newRefHDC builds the global open-addressing table (4 GB when
// tableBytes is 0, split between the 4 KB and 2 MB page sizes, probed
// after perfect page-size resolution), drawing cluster chunks and slot
// maps from pool (nil pool = fresh allocations). It fails when alloc
// has no contiguous run of frames left for a sub-table.
func newRefHDC(alloc FrameAllocator, tableBytes uint64, pool *recycle.Pool) (*refHDC, error) {
	if tableBytes == 0 {
		tableBytes = 4 * mem.GB
	}
	small, err := newRefHDCTable(alloc, mem.Page4K, tableBytes*7/8, pool)
	if err != nil {
		return nil, err
	}
	large, err := newRefHDCTable(alloc, mem.Page2M, tableBytes/8, pool)
	if err != nil {
		return nil, err
	}
	return &refHDC{sub: [2]*refHDCTable{small, large}}, nil
}

// Recycle hands the table's cluster chunks and slot maps back to pool,
// scrubbed to their empty state. The table must not be used afterwards.
func (p *refHDC) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, t := range p.sub {
		t.clusters.recycle(pool)
		recycle.PutMap(pool, refHDCSlotToKey, t.slotTo)
		recycle.PutMap(pool, refHDCClusterSlotKey, t.clusterSlot)
	}
	*p = refHDC{}
}

func (p *refHDC) tableFor(s mem.PageSize) *refHDCTable {
	if s == mem.Page2M {
		return p.sub[1]
	}
	return p.sub[0]
}

func refClusterKey(t *refHDCTable, va mem.VAddr) (cvpn uint64, idx int) {
	vpn := t.pageSize.VPN(va)
	return vpn / refHDCClusterPTEs, int(vpn % refHDCClusterPTEs)
}

// Walk implements PageTable.
func (p *refHDC) Walk(va mem.VAddr) WalkResult {
	var out WalkResult
	for _, t := range []*refHDCTable{p.sub[1], p.sub[0]} {
		cvpn, idx := refClusterKey(t, va)
		if c, ok := t.find(cvpn, nil); ok && c.used[idx] {
			t.find(cvpn, &out)
			out.Entry = c.entries[idx]
			out.Found = true
			return out
		}
	}
	// Miss: the walker probes the 4K table before faulting.
	cvpn, _ := refClusterKey(p.sub[0], va)
	p.sub[0].find(cvpn, &out)
	return out
}

// Lookup implements PageTable.
func (p *refHDC) Lookup(va mem.VAddr) (Entry, bool) {
	for _, t := range []*refHDCTable{p.sub[1], p.sub[0]} {
		cvpn, idx := refClusterKey(t, va)
		if c, ok := t.find(cvpn, nil); ok && c.used[idx] {
			return c.entries[idx], true
		}
	}
	return Entry{}, false
}

// Insert implements PageTable.
func (p *refHDC) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
	if e.Size == mem.Page1G {
		return ErrOutOfMemory{What: "1GB pages unsupported by HDC"}
	}
	t := p.tableFor(e.Size)
	cvpn, idx := refClusterKey(t, va)
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
func (p *refHDC) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
	t := p.tableFor(e.Size)
	cvpn, idx := refClusterKey(t, va)
	c, ok := t.find(cvpn, nil)
	if !ok || !c.used[idx] {
		return false
	}
	c.entries[idx] = e
	k.Store(t.slotPA(t.clusterSlot[cvpn]))
	return true
}

// Remove implements PageTable.
func (p *refHDC) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	for _, t := range []*refHDCTable{p.sub[1], p.sub[0]} {
		cvpn, idx := refClusterKey(t, va)
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
func (p *refHDC) MappedPages() uint64 { return p.pages }

// refHT is a chained hash page table in the PowerPC HTAB tradition (Table 4:
// "4 GB; Chain Table; 8 PTEs/entry"): a global bucket array where each
// bucket holds a PTE group of 8 translations, with overflow groups
// chained through slab-allocated nodes. Walks are one access in the
// common case plus one per chain hop. On the host, groups come from
// arena chunks and the bucket heads from a map, both of which a pooled
// table (newRefHT) takes from and gives back to a recycle.Pool.
type refHT struct {
	sub   [2]*refHTTable
	pages uint64
}

const refHTGroupPTEs = 8

type refHTNode struct {
	pa      mem.PAddr
	vpns    [refHTGroupPTEs]uint64
	entries [refHTGroupPTEs]Entry
	used    [refHTGroupPTEs]bool
	n       int
	next    *refHTNode
}

// Pool keys for a table's groups (arena chunks of 64; groups are never
// freed within a table's lifetime) and its bucket-head maps.
const (
	refHTNodeChunkKey = "pagetable.ht.nodechunk"
	refHTHeadsKey     = "pagetable.ht.heads"
)

type refHTTable struct {
	nodes         arena[refHTNode]
	alloc         FrameAllocator
	pageSize      mem.PageSize
	base          mem.PAddr
	buckets       uint64
	seed          uint64
	heads         map[uint64]*refHTNode
	ChainHops     uint64
	Lookups       uint64
	OverflowNodes uint64
}

func newRefHTTable(alloc FrameAllocator, ps mem.PageSize, tableBytes uint64, pool *recycle.Pool) (*refHTTable, error) {
	pages := tableBytes / (4 * mem.KB)
	base, ok := alloc.AllocContig(pages, 512)
	if !ok {
		return nil, errors.New("pagetable: cannot allocate HT table")
	}
	return &refHTTable{
		nodes:    arena[refHTNode]{pool: pool, key: refHTNodeChunkKey, min: 64, max: 64},
		alloc:    alloc,
		pageSize: ps,
		base:     base,
		buckets:  tableBytes / mem.CacheLineBytes,
		seed:     0xC4A12 ^ uint64(ps),
		heads:    recycle.Map[uint64, *refHTNode](pool, refHTHeadsKey),
	}, nil
}

func (t *refHTTable) bucketOf(vpn uint64) uint64 { return xrand.Hash64(vpn, t.seed) % t.buckets }

func (t *refHTTable) bucketPA(b uint64) mem.PAddr {
	return t.base + mem.PAddr(b*mem.CacheLineBytes)
}

// find walks the chain for vpn; out (optional) records probed node
// addresses.
func (t *refHTTable) find(vpn uint64, out *WalkResult) (*refHTNode, int, bool) {
	t.Lookups++
	b := t.bucketOf(vpn)
	node := t.heads[b]
	if out != nil {
		out.push(t.bucketPA(b), 0)
	}
	first := true
	for node != nil {
		if !first {
			t.ChainHops++
			if out != nil {
				out.push(node.pa, 0)
			}
		}
		for i := 0; i < refHTGroupPTEs; i++ {
			if node.used[i] && node.vpns[i] == vpn {
				return node, i, true
			}
		}
		node = node.next
		first = false
	}
	return nil, 0, false
}

func (t *refHTTable) insert(vpn uint64, e Entry, k instrument.KernelMem) bool {
	b := t.bucketOf(vpn)
	k.Load(t.bucketPA(b))
	head := t.heads[b]
	var freeNode *refHTNode
	freeIdx := -1
	for node := head; node != nil; node = node.next {
		if node != head {
			k.Load(node.pa)
		}
		for i := 0; i < refHTGroupPTEs; i++ {
			if node.used[i] && node.vpns[i] == vpn {
				node.entries[i] = e
				k.Store(node.pa)
				return false // updated in place
			}
			if !node.used[i] && freeNode == nil {
				freeNode, freeIdx = node, i
			}
		}
	}
	if freeNode == nil {
		// The head group lives in the bucket array itself; overflow
		// groups come from the slab.
		var pa mem.PAddr
		if head == nil {
			pa = t.bucketPA(b)
		} else {
			fp, ok := t.alloc.AllocFrame()
			if !ok {
				panic("pagetable: HT out of memory for overflow node")
			}
			pa = fp
			t.OverflowNodes++
			k.ALU(24) // slab allocation
		}
		freeNode = t.nodes.get()
		freeNode.pa, freeNode.next = pa, head
		t.heads[b] = freeNode
		freeIdx = 0
	}
	freeNode.vpns[freeIdx] = vpn
	freeNode.entries[freeIdx] = e
	freeNode.used[freeIdx] = true
	freeNode.n++
	k.Store(freeNode.pa)
	return true
}

// newRefHT builds the chained hash table (4 GB when tableBytes is 0),
// drawing group chunks and bucket-head maps from pool (nil pool = fresh
// allocations). It fails when alloc has no contiguous run of frames
// left for a sub-table.
func newRefHT(alloc FrameAllocator, tableBytes uint64, pool *recycle.Pool) (*refHT, error) {
	if tableBytes == 0 {
		tableBytes = 4 * mem.GB
	}
	small, err := newRefHTTable(alloc, mem.Page4K, tableBytes*7/8, pool)
	if err != nil {
		return nil, err
	}
	large, err := newRefHTTable(alloc, mem.Page2M, tableBytes/8, pool)
	if err != nil {
		return nil, err
	}
	return &refHT{sub: [2]*refHTTable{small, large}}, nil
}

// Recycle hands the table's group chunks and bucket-head maps back to
// pool, scrubbed to their empty state. The table must not be used
// afterwards.
func (p *refHT) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, t := range p.sub {
		t.nodes.recycle(pool)
		recycle.PutMap(pool, refHTHeadsKey, t.heads)
	}
	*p = refHT{}
}

func (p *refHT) tableFor(s mem.PageSize) *refHTTable {
	if s == mem.Page2M {
		return p.sub[1]
	}
	return p.sub[0]
}

// Walk implements PageTable.
func (p *refHT) Walk(va mem.VAddr) WalkResult {
	var out WalkResult
	for _, t := range []*refHTTable{p.sub[1], p.sub[0]} {
		vpn := t.pageSize.VPN(va)
		if _, _, ok := t.find(vpn, nil); ok {
			node, i, _ := t.find(vpn, &out)
			out.Entry = node.entries[i]
			out.Found = true
			return out
		}
	}
	p.sub[0].find(mem.Page4K.VPN(va), &out)
	return out
}

// Lookup implements PageTable.
func (p *refHT) Lookup(va mem.VAddr) (Entry, bool) {
	for _, t := range []*refHTTable{p.sub[1], p.sub[0]} {
		if node, i, ok := t.find(t.pageSize.VPN(va), nil); ok {
			return node.entries[i], true
		}
	}
	return Entry{}, false
}

// Insert implements PageTable.
func (p *refHT) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
	if e.Size == mem.Page1G {
		return ErrOutOfMemory{What: "1GB pages unsupported by HT"}
	}
	t := p.tableFor(e.Size)
	if t.insert(t.pageSize.VPN(va), e, k) {
		p.pages++
	}
	return nil
}

// Update implements PageTable.
func (p *refHT) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
	t := p.tableFor(e.Size)
	node, i, ok := t.find(t.pageSize.VPN(va), nil)
	if !ok {
		return false
	}
	node.entries[i] = e
	k.Store(node.pa)
	return true
}

// Remove implements PageTable.
func (p *refHT) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	for _, t := range []*refHTTable{p.sub[1], p.sub[0]} {
		vpn := t.pageSize.VPN(va)
		if node, i, ok := t.find(vpn, nil); ok {
			old := node.entries[i]
			node.used[i] = false
			node.n--
			p.pages--
			k.Store(node.pa)
			return old, true
		}
	}
	return Entry{}, false
}

// MappedPages implements PageTable.
func (p *refHT) MappedPages() uint64 { return p.pages }

// refECH is ECH's shell: one cuckoo table per page size.
type refECH struct {
	alloc  FrameAllocator
	tables [2]refCuckoo // 4K, 2M
	pages  uint64
}

// refCuckoo is a cuckoo table with the page size the shell kept in it.
type refCuckoo struct {
	*cuckooTable
	pageSize mem.PageSize
}

// newRefECH builds the shell over the 4K and 2M cuckoo tables small and
// large.
func newRefECH(alloc FrameAllocator, small, large *cuckooTable) *refECH {
	return &refECH{alloc: alloc, tables: [2]refCuckoo{{small, mem.Page4K}, {large, mem.Page2M}}}
}

// Recycle hands the table's slot pages back to pool, scrubbed to their
// empty state. The table must not be used afterwards.
func (p *refECH) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, t := range p.tables {
		t.recycle(pool)
	}
	*p = refECH{}
}

func (p *refECH) tableFor(s mem.PageSize) refCuckoo {
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
func (p *refECH) Walk(va mem.VAddr) WalkResult {
	var out WalkResult
	// The CWC resolves the page size: find which table holds it.
	for _, t := range []refCuckoo{p.tables[1], p.tables[0]} {
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
func (t refCuckoo) pushAllNests(vpn uint64, out *WalkResult) {
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
func (p *refECH) Lookup(va mem.VAddr) (Entry, bool) {
	for _, t := range []refCuckoo{p.tables[1], p.tables[0]} {
		if e, ok := t.lookup(t.pageSize.VPN(va), nil); ok {
			return e, true
		}
	}
	return Entry{}, false
}

// Insert implements PageTable.
func (p *refECH) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
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
func (p *refECH) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
	t := p.tableFor(e.Size)
	vpn := t.pageSize.VPN(va)
	if _, ok := t.lookup(vpn, nil); !ok {
		return false
	}
	t.insert(vpn, e, k)
	return true
}

// Remove implements PageTable.
func (p *refECH) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	for _, t := range []refCuckoo{p.tables[1], p.tables[0]} {
		if e, ok := t.remove(t.pageSize.VPN(va), k); ok {
			p.pages--
			return e, true
		}
	}
	return Entry{}, false
}

// MappedPages implements PageTable.
func (p *refECH) MappedPages() uint64 { return p.pages }
