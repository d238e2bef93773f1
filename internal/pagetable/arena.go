package pagetable

import "repro/internal/recycle"

// arena hands out zeroed *T values from chunks that are never regrown,
// so handed-out pointers stay valid. Chunks start at min elements and
// double up to max. When pool holds a chunk under key, it is taken
// instead of a fresh one: a parked chunk has length zero and a scrubbed
// capacity, so reuse is equivalent to a fresh make.
type arena[T any] struct {
	chunks   [][]T
	pool     *recycle.Pool
	key      string
	min, max int
}

func (a *arena[T]) get() *T {
	n := len(a.chunks)
	if n == 0 || len(a.chunks[n-1]) == cap(a.chunks[n-1]) {
		a.grow()
		n++
	}
	c := &a.chunks[n-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

func (a *arena[T]) grow() {
	if c, ok := a.pool.Take(a.key); ok {
		a.chunks = append(a.chunks, c.([]T))
		return
	}
	size := a.min
	if n := len(a.chunks); n > 0 {
		size = min(2*cap(a.chunks[n-1]), a.max)
	}
	a.chunks = append(a.chunks, make([]T, 0, size))
}

// recycle scrubs the used part of every chunk and parks the chunks in
// pool under the arena's key.
func (a *arena[T]) recycle(pool *recycle.Pool) {
	for _, c := range a.chunks {
		clear(c)
		pool.Give(a.key, c[:0])
	}
	a.chunks = nil
}
