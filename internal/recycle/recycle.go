// Package recycle provides the per-worker object pools behind pooled
// System construction (core.NewSystemPooled): a sweep worker keeps one
// Pool and cycles the big simulator allocations — cache SoA arrays,
// free-page bitmaps and extent maps, radix page-table arena chunks —
// across the points it runs instead of handing each point's ~megabytes
// of setup state to the garbage collector. Only allocations a sweep
// memory profile shows to matter are pooled; the rest (TLB arrays, the
// frontend batch buffer) are allocated fresh per System.
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
	u8   map[int][][]uint8
	objs map[string][]any
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		u64:  map[int][][]uint64{},
		u8:   map[int][][]uint8{},
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

// Uint8s returns a zeroed []uint8 of length n, pooled when possible.
func (p *Pool) Uint8s(n int) []uint8 {
	if p != nil {
		if s, ok := takeSlice(p.u8, n); ok {
			return s
		}
	}
	return make([]uint8, n)
}

// PutUint8s returns a slice to the pool (dropped when p is nil).
func (p *Pool) PutUint8s(s []uint8) {
	if p != nil {
		giveSlice(p.u8, s)
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

// Recycler is implemented by components that can harvest their large
// allocations into a pool when their owning System retires.
type Recycler interface {
	Recycle(p *Pool)
}
