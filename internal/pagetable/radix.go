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
	narena nodeArena
}

type radixNode struct {
	frame    mem.PAddr
	children [512]*radixNode // interior
	entries  [512]*Entry     // leaves at any level (1GB/2MB/4KB)
}

// entryArena hands out *Entry values from fixed-capacity chunks with a
// freelist, so steady-state fault handling (map page, later unmap)
// recycles entries instead of allocating one per mapped page. Chunks
// are append-only and never grown, so handed-out pointers stay valid.
type entryArena struct {
	chunks [][]Entry
	freel  []*Entry
	pool   *recycle.Pool
}

const entryChunk = 512

// Pool keys for recycled arena chunks. A recycled chunk is truncated to
// length zero with its capacity scrubbed, and get() writes the full
// element value on append, so reuse is equivalent to a fresh make.
const (
	entChunkKey  = "pagetable.radix.entchunk"
	nodeChunkKey = "pagetable.radix.nodechunk"
)

func (a *entryArena) grow() {
	if c, ok := a.pool.Take(entChunkKey); ok {
		a.chunks = append(a.chunks, c.([]Entry))
		return
	}
	a.chunks = append(a.chunks, make([]Entry, 0, entryChunk))
}

func (a *entryArena) get(e Entry) *Entry {
	if n := len(a.freel); n > 0 {
		p := a.freel[n-1]
		a.freel = a.freel[:n-1]
		*p = e
		return p
	}
	if len(a.chunks) == 0 || len(a.chunks[len(a.chunks)-1]) == entryChunk {
		a.grow()
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = append(*c, e)
	return &(*c)[len(*c)-1]
}

func (a *entryArena) put(p *Entry) { a.freel = append(a.freel, p) }

// nodeArena batches radixNode allocations; nodes are never reclaimed
// within a process lifetime (Linux defers PT reclamation too), so no
// freelist is needed.
type nodeArena struct {
	chunks [][]radixNode
	pool   *recycle.Pool
}

const nodeChunk = 32

func (a *nodeArena) grow() {
	if c, ok := a.pool.Take(nodeChunkKey); ok {
		a.chunks = append(a.chunks, c.([]radixNode))
		return
	}
	a.chunks = append(a.chunks, make([]radixNode, 0, nodeChunk))
}

func (a *nodeArena) get(frame mem.PAddr) *radixNode {
	if len(a.chunks) == 0 || len(a.chunks[len(a.chunks)-1]) == nodeChunk {
		a.grow()
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = append(*c, radixNode{frame: frame})
	return &(*c)[len(*c)-1]
}

// NewRadix builds an empty radix table; the root frame is allocated
// immediately (as the kernel does for a new mm_struct).
func NewRadix(alloc FrameAllocator) *Radix { return NewRadixWith(alloc, nil) }

// NewRadixWith is NewRadix drawing arena chunks from pool (nil pool =
// plain NewRadix).
func NewRadixWith(alloc FrameAllocator, pool *recycle.Pool) *Radix {
	r := &Radix{alloc: alloc}
	r.ents.pool = pool
	r.narena.pool = pool
	frame, ok := alloc.AllocFrame()
	if !ok {
		panic("pagetable: cannot allocate radix root")
	}
	r.root = r.narena.get(frame)
	return r
}

// Recycle hands the table's arena chunks back to pool, scrubbed to
// their empty state. The table must not be used afterwards.
func (r *Radix) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, c := range r.ents.chunks {
		c = c[:cap(c)]
		clear(c)
		pool.Give(entChunkKey, c[:0])
	}
	for _, c := range r.narena.chunks {
		c = c[:cap(c)]
		clear(c)
		pool.Give(nodeChunkKey, c[:0])
	}
	r.ents = entryArena{}
	r.narena = nodeArena{}
	r.root = nil
}

// Kind implements PageTable.
func (r *Radix) Kind() string { return "radix" }

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
		if e := node.entries[idx[level]]; e != nil {
			out.Entry = *e
			out.Found = true
			return out
		}
		child := node.children[idx[level]]
		if child == nil {
			return out // not mapped: fault after this access
		}
		node = child
	}
	return out
}

// Lookup implements PageTable.
func (r *Radix) Lookup(va mem.VAddr) (Entry, bool) {
	idx := indices(va)
	node := r.root
	for level := 0; level < 4; level++ {
		if e := node.entries[idx[level]]; e != nil {
			return *e, true
		}
		node = node.children[idx[level]]
		if node == nil {
			return Entry{}, false
		}
	}
	return Entry{}, false
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
		child := node.children[idx[level]]
		if child == nil {
			frame, ok := r.alloc.AllocFrame()
			if !ok {
				return ErrOutOfMemory{What: "radix node"}
			}
			child = r.narena.get(frame)
			node.children[idx[level]] = child
			k.ALU(24) // slab fast path: freelist pop, frame init
			k.Store(pteAddr(node, idx[level]))
		}
		node = child
	}
	if old := node.entries[idx[depth]]; old != nil {
		*old = e
	} else {
		r.pages++
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
		if node.entries[idx[level]] != nil {
			return node, idx[level], true
		}
		node = node.children[idx[level]]
		if node == nil {
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// MappedPages implements PageTable.
func (r *Radix) MappedPages() uint64 { return r.pages }
