package pagetable

import (
	"errors"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

// hashed is the shell of the hashed page tables (HDC, HT and ECH): one
// scheme per page size, probed after perfect page-size resolution (the
// 2M table first), and the count of mapped pages. The designs differ
// only in their scheme; 1 GB pages are unsupported. (A generic shell
// over the scheme type walks slower: calls through PageTable reach it
// by a wrapper that copies each WalkResult once more.)
type hashed struct {
	sub   [2]scheme // 4K, 2M
	pages uint64
	// walk is where Walk builds its result: probe is an indirect call,
	// so a result on Walk's stack would escape to the heap.
	walk WalkResult
}

// scheme is one page size's table of a hashed design, keyed by virtual
// page number. get returns vpn's entry and records no walk steps;
// probe records the accesses of a hardware walk for vpn in out. put
// maps vpn, reporting whether it was unmapped before (or an error when
// the table is full); update rewrites an existing mapping; remove
// unmaps vpn. The three charge their kernel accesses to k. recycle
// parks the host storage in pool.
type scheme interface {
	get(vpn uint64) (Entry, bool)
	probe(vpn uint64, out *WalkResult)
	put(vpn uint64, e Entry, k instrument.KernelMem) (bool, error)
	update(vpn uint64, e Entry, k instrument.KernelMem) bool
	remove(vpn uint64, k instrument.KernelMem) (Entry, bool)
	recycle(pool *recycle.Pool)
}

// hashedSizes are the page sizes of a hashed table's sub-tables.
var hashedSizes = [2]mem.PageSize{mem.Page4K, mem.Page2M}

// table returns the sub-table for page size s (4K unless 2M) and va's VPN.
func (p *hashed) table(s mem.PageSize, va mem.VAddr) (scheme, uint64) {
	if s == mem.Page2M {
		return p.sub[1], mem.Page2M.VPN(va)
	}
	return p.sub[0], mem.Page4K.VPN(va)
}

// Walk implements PageTable: the walker probes the sub-table that maps
// va, or the 4K one before raising the fault.
func (p *hashed) Walk(va mem.VAddr) WalkResult {
	out := &p.walk
	*out = WalkResult{}
	for i := 1; i >= 0; i-- {
		vpn := hashedSizes[i].VPN(va)
		if e, ok := p.sub[i].get(vpn); ok {
			p.sub[i].probe(vpn, out)
			out.Entry, out.Found = e, true
			return *out
		}
	}
	p.sub[0].probe(mem.Page4K.VPN(va), out)
	return *out
}

// Lookup implements PageTable.
func (p *hashed) Lookup(va mem.VAddr) (Entry, bool) {
	for i := 1; i >= 0; i-- {
		if e, ok := p.sub[i].get(hashedSizes[i].VPN(va)); ok {
			return e, true
		}
	}
	return Entry{}, false
}

// Insert implements PageTable.
func (p *hashed) Insert(va mem.VAddr, e Entry, k instrument.KernelMem) error {
	if e.Size == mem.Page1G {
		return ErrOutOfMemory{What: "1GB pages unsupported by hashed page tables"}
	}
	t, vpn := p.table(e.Size, va)
	added, err := t.put(vpn, e, k)
	if added {
		p.pages++
	}
	return err
}

// Update implements PageTable.
func (p *hashed) Update(va mem.VAddr, e Entry, k instrument.KernelMem) bool {
	t, vpn := p.table(e.Size, va)
	return t.update(vpn, e, k)
}

// Remove implements PageTable.
func (p *hashed) Remove(va mem.VAddr, k instrument.KernelMem) (Entry, bool) {
	for i := 1; i >= 0; i-- {
		if e, ok := p.sub[i].remove(hashedSizes[i].VPN(va), k); ok {
			p.pages--
			return e, true
		}
	}
	return Entry{}, false
}

// MappedPages implements PageTable.
func (p *hashed) MappedPages() uint64 { return p.pages }

// Recycle hands the table's host storage back to pool, scrubbed to its
// empty state. The table must not be used afterwards.
func (p *hashed) Recycle(pool *recycle.Pool) {
	for _, t := range p.sub {
		t.recycle(pool)
	}
	*p = hashed{}
}

// newGlobal builds a global hashed table (HDC, HT) of tableBytes, 4 GB
// when 0, split 7:1 between its 4K and 2M sub-tables. Each sub-table's
// buckets take a contiguous run of frames from alloc, keyed by seed
// xor the page size, and sub builds the scheme over them. It fails when
// alloc has no contiguous run left for a sub-table.
func newGlobal(alloc FrameAllocator, tableBytes, seed uint64, design string, sub func(buckets) scheme) (PageTable, error) {
	if tableBytes == 0 {
		tableBytes = 4 * mem.GB
	}
	p := &hashed{}
	for i, bytes := range [2]uint64{tableBytes * 7 / 8, tableBytes / 8} {
		base, ok := alloc.AllocContig(bytes/(4*mem.KB), 512)
		if !ok {
			return nil, errors.New("pagetable: cannot allocate " + design + " table")
		}
		p.sub[i] = sub(buckets{base: base, n: bytes / mem.CacheLineBytes, seed: seed ^ uint64(hashedSizes[i])})
	}
	return p, nil
}

// buckets is a global table's array of 64-byte buckets at base: each
// key hashes to a home bucket.
type buckets struct {
	base mem.PAddr
	n    uint64
	seed uint64
}

func (b *buckets) home(key uint64) uint64 { return xrand.Hash64(key, b.seed) % b.n }

func (b *buckets) pa(i uint64) mem.PAddr { return b.base + mem.PAddr(i*mem.CacheLineBytes) }
