// Package recycle provides the per-worker object pools behind pooled
// System construction (core.NewSystemPooled): a sweep worker keeps one
// Pool and cycles the big simulator allocations across the points it
// runs instead of handing each point's ~megabytes of setup state to the
// garbage collector. The kept allocations are the physical free-page
// bitmaps, their per-2 MB-block free counts and candidate stacks (key
// "phys.stacks"), the cache SoA arrays, the radix page table's
// arena chunks (keys "pagetable.radix.entchunk" for entries,
// "pagetable.radix.kidschunk" for node children arrays and
// "pagetable.radix.leafchunk" for node leaf arrays), and the
// trace-replay reader's buffers (key "trace.reader": its 64 KiB read
// buffer, v2 block buffers and flate state, parked when a point's trace
// source closes).
//
// Per-process state that every point rebuilds is kept too, handed back
// by the kernel's Recycle for live and exited processes alike. Chunk
// keys, with the most one worker can hold parked (objCap chunks):
//
//	mimicos.resident.chunk       resident-list chunks, 24 KiB   1.5 MiB
//	pagetable.ht.nodechunk       HT groups, 64 × 288 B          1.1 MiB
//	pagetable.hdc.clusterchunk   HDC clusters, ≤ 64 × 216 B     864 KiB
//	pagetable.ech.slotpage       ECH slot pages, 512 × 4 B      128 KiB
//
// Map keys ("mimicos.resident.idx", "pagetable.ht.heads",
// "pagetable.hdc.slotto", "pagetable.hdc.clusterslot") park cleared
// maps, at most objCap each, whose buckets are sized by the largest
// process or table that used them.
//
// Only allocations a sweep memory profile shows to matter, and that do
// not raise the heap while parked, are pooled. The rest are allocated
// fresh per System: TLB arrays, the frontend batch buffer, radix node
// headers, and ECH page directories and records. A worker keeps its
// parked storage through every point that does not use it, and that
// raises the live heap the garbage collector paces from, so a key must
// stay small. ECH slot pages that held their 32-byte records in place
// were 16 KiB each, and parking them raised replay-grid's heap peak
// from 5.7–6.7 to 7.6–8.1 MB. Parking ECH record chunks (128 × 32 B)
// beside the 2 KiB slot pages raised its median heap peak from 5.77 to
// 6.58 MB over 9 alternating runs, so records are allocated per point.
//
// Determinism is by construction, not by protocol: a pooled slice is
// scrubbed to zero when it enters the pool and is matched by exact
// length on the way out, so a constructor that swaps `make([]T, n)` for
// `pool.Uint64s(n)` receives memory indistinguishable from a fresh
// allocation. Structural shape changes between points (different cache
// geometry, different phys size) simply miss the length bucket and fall
// back to a fresh make. Keyed objects (Take/Give) carry composite state
// whose owner guarantees the same fresh-equivalence before giving it
// back.
//
// A nil *Pool is valid everywhere and means "no pooling": every take
// allocates fresh and every give is dropped, so the pooled constructors
// double as the unpooled ones. Pools are not safe for concurrent use —
// one worker, one pool.
package recycle

// sliceCap bounds retained slices per (type, length) bucket; objCap
// bounds retained objects per key. Both exist only to cap worker-lifetime
// memory, not for correctness.
const (
	sliceCap = 8
	objCap   = 64
)

// Pool recycles simulator allocations across pooled System lifetimes.
type Pool struct {
	u64  map[int][][]uint64
	objs map[string][]any
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		u64:  map[int][][]uint64{},
		objs: map[string][]any{},
	}
}

// takeSlice pops a pooled slice of exactly length n. Pooled slices were
// zeroed on entry, so the result is equivalent to make([]T, n).
func takeSlice[T any](m map[int][][]T, n int) ([]T, bool) {
	b := m[n]
	if len(b) == 0 {
		return nil, false
	}
	s := b[len(b)-1]
	b[len(b)-1] = nil
	m[n] = b[:len(b)-1]
	return s, true
}

// giveSlice scrubs s and stores it under its length bucket.
func giveSlice[T any](m map[int][][]T, s []T) {
	n := len(s)
	if n == 0 || len(m[n]) >= sliceCap {
		return
	}
	clear(s)
	m[n] = append(m[n], s)
}

// Uint64s returns a zeroed []uint64 of length n, pooled when possible.
func (p *Pool) Uint64s(n int) []uint64 {
	if p != nil {
		if s, ok := takeSlice(p.u64, n); ok {
			return s
		}
	}
	return make([]uint64, n)
}

// PutUint64s returns a slice to the pool (dropped when p is nil).
func (p *Pool) PutUint64s(s []uint64) {
	if p != nil {
		giveSlice(p.u64, s)
	}
}

// Take pops a keyed object given earlier under the same key. The giver
// owns the reset contract: whatever comes back must behave exactly like
// the freshly constructed equivalent.
func (p *Pool) Take(key string) (any, bool) {
	if p == nil {
		return nil, false
	}
	b := p.objs[key]
	if len(b) == 0 {
		return nil, false
	}
	v := b[len(b)-1]
	b[len(b)-1] = nil
	p.objs[key] = b[:len(b)-1]
	return v, true
}

// Give stores v under key for a later Take (dropped when p is nil or
// the key's bucket is full).
func (p *Pool) Give(key string, v any) {
	if p == nil || len(p.objs[key]) >= objCap {
		return
	}
	p.objs[key] = append(p.objs[key], v)
}

// Map returns the map parked under key, or a fresh one when none is
// (or p is nil). Parked maps were cleared on entry, so the result holds
// no keys, like make(map[K]V); clear keeps a map's buckets, which is
// what reuse saves. Only maps nothing iterates may be pooled: a reused
// map can range in a different order than a fresh one.
func Map[K comparable, V any](p *Pool, key string) map[K]V {
	if m, ok := p.Take(key); ok {
		return m.(map[K]V)
	}
	return make(map[K]V)
}

// PutMap clears m and parks it under key (dropped when p is nil).
func PutMap[K comparable, V any](p *Pool, key string, m map[K]V) {
	if p == nil || m == nil {
		return
	}
	clear(m)
	p.Give(key, m)
}

// Recycler is implemented by components that can harvest their large
// allocations into a pool when their owning System retires.
type Recycler interface {
	Recycle(p *Pool)
}
