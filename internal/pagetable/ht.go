package pagetable

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

// HT is a chained hash page table in the PowerPC HTAB tradition (Table 4:
// "4 GB; Chain Table; 8 PTEs/entry"): a global bucket array where each
// bucket holds a PTE group of 8 translations, with overflow groups
// chained through slab-allocated nodes. Walks are one access in the
// common case plus one per chain hop. On the host, groups come from
// arena chunks and the bucket heads from a map, both of which a pooled
// table (NewHTWith) takes from and gives back to a recycle.Pool.
type HT struct {
	sub   [2]*htTable
	pages uint64
}

const htGroupPTEs = 8

type htNode struct {
	pa      mem.PAddr
	vpns    [htGroupPTEs]uint64
	entries [htGroupPTEs]Entry
	used    [htGroupPTEs]bool
	n       int
	next    *htNode
}

// Pool keys for a table's groups (arena chunks of 64; groups are never
// freed within a table's lifetime) and its bucket-head maps.
const (
	htNodeChunkKey = "pagetable.ht.nodechunk"
	htHeadsKey     = "pagetable.ht.heads"
)

type htTable struct {
	nodes         arena[htNode]
	alloc         FrameAllocator
	pageSize      mem.PageSize
	base          mem.PAddr
	buckets       uint64
	seed          uint64
	heads         map[uint64]*htNode
	ChainHops     uint64
	Lookups       uint64
	OverflowNodes uint64
}

func newHTTable(alloc FrameAllocator, ps mem.PageSize, tableBytes uint64, pool *recycle.Pool) *htTable {
	pages := tableBytes / (4 * mem.KB)
	base, ok := alloc.AllocContig(pages, 512)
	if !ok {
		panic("pagetable: cannot allocate HT table")
	}
	return &htTable{
		nodes:    arena[htNode]{pool: pool, key: htNodeChunkKey, min: 64, max: 64},
		alloc:    alloc,
		pageSize: ps,
		base:     base,
		buckets:  tableBytes / mem.CacheLineBytes,
		seed:     0xC4A12 ^ uint64(ps),
		heads:    recycle.Map[uint64, *htNode](pool, htHeadsKey),
	}
}

func (t *htTable) bucketOf(vpn uint64) uint64 { return xrand.Hash64(vpn, t.seed) % t.buckets }

func (t *htTable) bucketPA(b uint64) mem.PAddr {
	return t.base + mem.PAddr(b*mem.CacheLineBytes)
}

// find walks the chain for vpn; out (optional) records probed node
// addresses.
func (t *htTable) find(vpn uint64, out *WalkResult) (*htNode, int, bool) {
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
		for i := 0; i < htGroupPTEs; i++ {
			if node.used[i] && node.vpns[i] == vpn {
				return node, i, true
			}
		}
		node = node.next
		first = false
	}
	return nil, 0, false
}

func (t *htTable) insert(vpn uint64, e Entry, k instrument.KernelMem) bool {
	b := t.bucketOf(vpn)
	k.Load(t.bucketPA(b))
	head := t.heads[b]
	var freeNode *htNode
	freeIdx := -1
	for node := head; node != nil; node = node.next {
		if node != head {
			k.Load(node.pa)
		}
		for i := 0; i < htGroupPTEs; i++ {
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

// NewHTWith builds the chained hash table (4 GB when tableBytes is 0),
// drawing group chunks and bucket-head maps from pool (nil pool = fresh
// allocations).
func NewHTWith(alloc FrameAllocator, tableBytes uint64, pool *recycle.Pool) *HT {
	if tableBytes == 0 {
		tableBytes = 4 * mem.GB
	}
	return &HT{sub: [2]*htTable{
		newHTTable(alloc, mem.Page4K, tableBytes*7/8, pool),
		newHTTable(alloc, mem.Page2M, tableBytes/8, pool),
	}}
}

// Recycle hands the table's group chunks and bucket-head maps back to
// pool, scrubbed to their empty state. The table must not be used
// afterwards.
func (p *HT) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, t := range p.sub {
		t.nodes.recycle(pool)
		recycle.PutMap(pool, htHeadsKey, t.heads)
	}
	*p = HT{}
}

// Kind implements PageTable.
func (p *HT) Kind() string { return "ht" }

func (p *HT) tableFor(s mem.PageSize) *htTable {
	if s == mem.Page2M {
		return p.sub[1]
	}
	return p.sub[0]
}

// Walk implements PageTable.
func (p *HT) Walk(va mem.VAddr) WalkResult {
	var out WalkResult
	for _, t := range []*htTable{p.sub[1], p.sub[0]} {
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
func (p *HT) Lookup(va mem.VAddr) (Entry, bool) {
	for _, t := range []*htTable{p.sub[1], p.sub[0]} {
		if node, i, ok := t.find(t.pageSize.VPN(va), nil); ok {
			return node.entries[i], true
		}
	}
	return Entry{}, false
}

// Insert implements PageTable.
func (p *HT) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
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
func (p *HT) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
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
func (p *HT) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	for _, t := range []*htTable{p.sub[1], p.sub[0]} {
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
func (p *HT) MappedPages() uint64 { return p.pages }
