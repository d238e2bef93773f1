package pagetable

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
)

const htGroupPTEs = 8

type htNode struct {
	pa      mem.PAddr
	vpns    [htGroupPTEs]uint64
	entries [htGroupPTEs]Entry
	used    [htGroupPTEs]bool
	next    *htNode
}

// Pool keys for a table's groups (arena chunks of 64; groups are never
// freed within a table's lifetime) and its bucket-head maps.
const (
	htNodeChunkKey = "pagetable.ht.nodechunk"
	htHeadsKey     = "pagetable.ht.heads"
)

// htTable is the scheme of HT, a chained hash page table in the PowerPC
// HTAB tradition (Table 4: "4 GB; Chain Table; 8 PTEs/entry"): a global
// bucket array where each bucket holds a PTE group of 8 translations,
// with overflow groups chained through slab-allocated nodes. Walks are
// one access in the common case plus one per chain hop. On the host,
// groups come from arena chunks and the bucket heads from a map, both
// of which a pooled table (NewHTWith) takes from and gives back to a
// recycle.Pool.
type htTable struct {
	buckets
	nodes         arena[htNode]
	alloc         FrameAllocator
	heads         map[uint64]*htNode
	ChainHops     uint64
	Lookups       uint64
	OverflowNodes uint64
}

// NewHTWith builds HT's chained hash table (4 GB when tableBytes is 0),
// drawing group chunks and bucket-head maps from pool (nil pool = fresh
// allocations). It fails when alloc has no contiguous run of frames
// left for a sub-table.
func NewHTWith(alloc FrameAllocator, tableBytes uint64, pool *recycle.Pool) (PageTable, error) {
	return newGlobal(alloc, tableBytes, 0xC4A12, "HT", func(b buckets) scheme {
		return &htTable{
			buckets: b,
			nodes:   arena[htNode]{pool: pool, key: htNodeChunkKey, min: 64, max: 64},
			alloc:   alloc,
			heads:   recycle.Map[uint64, *htNode](pool, htHeadsKey),
		}
	})
}

// find walks the chain for vpn; out (optional) records probed node
// addresses.
func (t *htTable) find(vpn uint64, out *WalkResult) (*htNode, int, bool) {
	t.Lookups++
	b := t.home(vpn)
	if out != nil {
		out.push(t.pa(b), 0)
	}
	head := t.heads[b]
	for node := head; node != nil; node = node.next {
		if node != head {
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
	}
	return nil, 0, false
}

func (t *htTable) put(vpn uint64, e Entry, k instrument.KernelMem) (bool, error) {
	b := t.home(vpn)
	k.Load(t.pa(b))
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
				return false, nil // updated in place
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
			pa = t.pa(b)
		} else {
			fp, ok := t.alloc.AllocFrame()
			if !ok {
				return false, ErrOutOfMemory{What: "HT overflow node"}
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
	k.Store(freeNode.pa)
	return true, nil
}

func (t *htTable) get(vpn uint64) (Entry, bool) {
	if node, i, ok := t.find(vpn, nil); ok {
		return node.entries[i], true
	}
	return Entry{}, false
}

func (t *htTable) probe(vpn uint64, out *WalkResult) { t.find(vpn, out) }

func (t *htTable) update(vpn uint64, e Entry, k instrument.KernelMem) bool {
	node, i, ok := t.find(vpn, nil)
	if !ok {
		return false
	}
	node.entries[i] = e
	k.Store(node.pa)
	return true
}

func (t *htTable) remove(vpn uint64, k instrument.KernelMem) (Entry, bool) {
	node, i, ok := t.find(vpn, nil)
	if !ok {
		return Entry{}, false
	}
	node.used[i] = false
	k.Store(node.pa)
	return node.entries[i], true
}

func (t *htTable) recycle(pool *recycle.Pool) {
	t.nodes.recycle(pool)
	recycle.PutMap(pool, htHeadsKey, t.heads)
}
