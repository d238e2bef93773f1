package pagetable

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
)

// Radix is the x86-64 4-level radix page table (Table 4's "Radix"
// baseline): PML4 → PDPT → PD → PT, 512 entries of 8 B per 4 KB node,
// with 1 GB leaves at the PDPT level and 2 MB leaves at the PD level.
// Node frames come from the slab allocator on demand, so building deep
// paths during page faults costs kernel memory accesses — the reason
// radix insertion is slower than hash-table insertion in Fig. 15.
type Radix struct {
	alloc  FrameAllocator
	root   *radixNode
	pages  uint64
	ents   entryArena
	nodes  arena[radixNode]
	kids   arena[[512]*radixNode]
	leaves arena[[512]*Entry]
}

// radixNode is one simulated 4 KB table node. Its host arrays are made
// with the first child or leaf it gets, so PML4 and PDPT nodes carry
// only children, PT nodes only leaves, and a PD node leaves only when
// it maps 2 MB pages. A nil array reads as empty.
type radixNode struct {
	frame    mem.PAddr
	children *[512]*radixNode // interior
	entries  *[512]*Entry     // leaves at any level (1GB/2MB/4KB)
}

func (n *radixNode) child(i int) *radixNode {
	if n.children == nil {
		return nil
	}
	return n.children[i]
}

func (n *radixNode) leaf(i int) *Entry {
	if n.entries == nil {
		return nil
	}
	return n.entries[i]
}

// entryArena recycles *Entry values through a freelist, so steady-state
// fault handling (map page, later unmap) reuses entries instead of
// allocating one per mapped page.
type entryArena struct {
	arena[Entry]
	freel []*Entry
}

func (a *entryArena) get(e Entry) *Entry {
	var p *Entry
	if n := len(a.freel); n > 0 {
		p = a.freel[n-1]
		a.freel = a.freel[:n-1]
	} else {
		p = a.arena.get()
	}
	*p = e
	return p
}

func (a *entryArena) put(p *Entry) { a.freel = append(a.freel, p) }

// Pool keys for recycled arena chunks: entries, and the children and
// leaf arrays of nodes. Node headers (24 B each) are not pooled; nodes
// are never reclaimed within a process lifetime (Linux defers PT
// reclamation too), so their arena needs no freelist.
const (
	entChunkKey  = "pagetable.radix.entchunk"
	kidsChunkKey = "pagetable.radix.kidschunk"
	leafChunkKey = "pagetable.radix.leafchunk"
)

// NewRadix builds an empty radix table; the root frame is allocated
// immediately (as the kernel does for a new mm_struct).
func NewRadix(alloc FrameAllocator) *Radix { return NewRadixWith(alloc, nil) }

// NewRadixWith is NewRadix drawing arena chunks from pool (nil pool =
// plain NewRadix).
func NewRadixWith(alloc FrameAllocator, pool *recycle.Pool) *Radix {
	r := &Radix{
		alloc:  alloc,
		ents:   entryArena{arena: arena[Entry]{pool: pool, key: entChunkKey, min: 512, max: 512}},
		nodes:  arena[radixNode]{min: 32, max: 32},
		kids:   arena[[512]*radixNode]{pool: pool, key: kidsChunkKey, min: 4, max: 32},
		leaves: arena[[512]*Entry]{pool: pool, key: leafChunkKey, min: 4, max: 32},
	}
	frame, ok := alloc.AllocFrame()
	if !ok {
		panic("pagetable: cannot allocate radix root")
	}
	r.root = r.newNode(frame)
	return r
}

func (r *Radix) newNode(frame mem.PAddr) *radixNode {
	n := r.nodes.get()
	n.frame = frame
	return n
}

// Recycle hands the table's entry chunks and node-array chunks back to
// pool, scrubbed to their empty state. The table must not be used
// afterwards.
func (r *Radix) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	r.ents.recycle(pool)
	r.kids.recycle(pool)
	r.leaves.recycle(pool)
	*r = Radix{}
}

// indices returns the PML4/PDPT/PD/PT indices of va.
func indices(va mem.VAddr) [4]int {
	return [4]int{
		int(uint64(va) >> 39 & 0x1ff), // level 4
		int(uint64(va) >> 30 & 0x1ff), // level 3
		int(uint64(va) >> 21 & 0x1ff), // level 2
		int(uint64(va) >> 12 & 0x1ff), // level 1
	}
}

func pteAddr(node *radixNode, idx int) mem.PAddr {
	return node.frame + mem.PAddr(idx*8)
}

// Walk implements PageTable.
func (r *Radix) Walk(va mem.VAddr) WalkResult {
	var out WalkResult
	idx := indices(va)
	node := r.root
	for level := 0; level < 4; level++ {
		pa := pteAddr(node, idx[level])
		out.push(pa, 4-level)
		if e := node.leaf(idx[level]); e != nil {
			out.Entry = *e
			out.Found = true
			return out
		}
		child := node.child(idx[level])
		if child == nil {
			return out // not mapped: fault after this access
		}
		node = child
	}
	return out
}

// Lookup implements PageTable.
func (r *Radix) Lookup(va mem.VAddr) (Entry, bool) {
	node, idx, ok := r.findLeaf(va)
	if !ok {
		return Entry{}, false
	}
	return *node.entries[idx], true
}

func leafDepth(s mem.PageSize) int {
	switch s {
	case mem.Page1G:
		return 1 // entry lives in the PDPT (second access)
	case mem.Page2M:
		return 2
	default:
		return 3
	}
}

// Insert implements PageTable. Intermediate nodes are allocated from the
// slab; each traversed or written PTE is reported to k.
func (r *Radix) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
	idx := indices(va)
	depth := leafDepth(e.Size)
	node := r.root
	for level := 0; level < depth; level++ {
		k.Load(pteAddr(node, idx[level]))
		child := node.child(idx[level])
		if child == nil {
			frame, ok := r.alloc.AllocFrame()
			if !ok {
				return ErrOutOfMemory{What: "radix node"}
			}
			child = r.newNode(frame)
			if node.children == nil {
				node.children = r.kids.get()
			}
			node.children[idx[level]] = child
			k.ALU(24) // slab fast path: freelist pop, frame init
			k.Store(pteAddr(node, idx[level]))
		}
		node = child
	}
	if old := node.leaf(idx[depth]); old != nil {
		*old = e
	} else {
		r.pages++
		if node.entries == nil {
			node.entries = r.leaves.get()
		}
		node.entries[idx[depth]] = r.ents.get(e)
	}
	k.Store(pteAddr(node, idx[depth]))
	return nil
}

// Update implements PageTable.
func (r *Radix) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
	node, idx, ok := r.findLeaf(va)
	if !ok {
		return false
	}
	*node.entries[idx] = e
	k.Store(pteAddr(node, idx))
	return true
}

// Remove implements PageTable. Empty interior nodes are not reclaimed
// eagerly (as in Linux, where PT reclamation is deferred).
func (r *Radix) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	node, idx, ok := r.findLeaf(va)
	if !ok {
		return Entry{}, false
	}
	old := *node.entries[idx]
	r.ents.put(node.entries[idx])
	node.entries[idx] = nil
	r.pages--
	k.Store(pteAddr(node, idx))
	return old, true
}

func (r *Radix) findLeaf(va mem.VAddr) (*radixNode, int, bool) {
	idx := indices(va)
	node := r.root
	for level := 0; level < 4; level++ {
		if node.leaf(idx[level]) != nil {
			return node, idx[level], true
		}
		node = node.child(idx[level])
		if node == nil {
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// MappedPages implements PageTable.
func (r *Radix) MappedPages() uint64 { return r.pages }
