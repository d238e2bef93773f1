// Package cache implements the on-chip cache hierarchy of the simulated
// system: set-associative caches with LRU and SRRIP replacement, an
// IP-stride prefetcher at L1D and a stream prefetcher at L2 (Table 4), and
// a Hierarchy type that composes the levels on top of a DRAM controller.
//
// Accesses are tagged with a mem.AccessType, which splits each level's
// hit and miss counts and DRAM's access counts, so the statistics show
// how injected kernel streams and page-table walks pollute the caches —
// the interference effects Virtuoso's imitation methodology makes
// visible.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/recycle"
)

// ReplPolicy selects the replacement policy of one cache.
type ReplPolicy uint8

const (
	// LRU evicts the least-recently-used way.
	LRU ReplPolicy = iota
	// SRRIP is static re-reference interval prediction (Jaleel et al.),
	// used by the paper's L2 configuration.
	SRRIP
)

const srripMax = 3 // 2-bit RRPV

// Lines are stored structure-of-arrays, one densely packed word per way
// instead of a struct:
//
//	tags[i] = (tag << 1) | 1 for a valid line, 0 for an invalid one
//	lru[i]  = last-use stamp (LRU replacement only)
//
// Everything else a set knows lives in one per-set record of stride
// words in setMeta (vw = ceil(ways/64), fw = ceil(ways/8),
// rw = ceil(ways/32) under SRRIP and 0 under LRU):
//
//	setMeta[o : o+vw]               valid mask: bit w%64 of word w/64 is set iff way w is valid
//	setMeta[o+vw : o+vw+fw]         fingerprints: byte w%8 of word w/8 is the low 8 bits of way w's tag
//	setMeta[o+vw+fw : o+2vw+fw]     dirty mask, laid out like the valid mask
//	setMeta[o+2vw+fw : o+2vw+fw+rw] SRRIP RRPVs: way w at bits 2(w%32)..2(w%32)+1 of word w/32
//
// find XORs each fingerprint word with the probed tag's low byte copied
// into every lane and picks the zero lanes with the SWAR test
// (x-0x01..)&^x&0x80..; only those candidate ways are compared against
// the full tags entry. place takes the first invalid way from the valid
// mask and runs the policy's victim scan only when the set is full; once
// every line of the cache is valid (the steady state after warm-up) it
// skips the valid-mask scan altogether.
const (
	lanes   = 0x0101010101010101 // one bit at the bottom of every byte lane
	laneTop = lanes << 7         // one bit at the top of every byte lane

	rrpvLanes = 0x5555555555555555 // the low bit of every 2-bit RRPV field
)

// Stats counts per-type cache activity.
type Stats struct {
	Hits          [mem.NumAccessTypes]uint64
	Misses        [mem.NumAccessTypes]uint64
	Evictions     uint64
	Writebacks    uint64
	PrefetchFills uint64
}

// Cache is one set-associative cache level.
type Cache struct {
	sets      int
	ways      int
	latency   uint64
	policy    ReplPolicy
	tags      []uint64 // sets*ways, row-major; (tag<<1)|valid
	lru       []uint64
	setMeta   []uint64 // sets*stride per-set records (layout above)
	stride    int
	fpOff     int    // first fingerprint word of a record (= vw)
	dirtyOff  int    // first dirty-mask word (= vw+fw)
	rrpvOff   int    // first RRPV word (= 2vw+fw)
	rrpvLast  uint64 // low bit of every real way's field in the last RRPV word
	tick      uint64
	stats     Stats
	setMask   uint64
	setsShift uint // log2(sets): tag extraction shifts instead of dividing
	valid     int  // valid lines; len(tags) once every way of every set is valid
}

// geometry returns the set count of a sizeBytes cache with the given
// ways, or why no such cache can be built.
func geometry(sizeBytes uint64, ways int) (int, error) {
	lines := sizeBytes / mem.CacheLineBytes
	switch {
	case lines == 0 || ways <= 0:
		return 0, fmt.Errorf("size %d B with %d ways: need at least one %d B line and one way", sizeBytes, ways, mem.CacheLineBytes)
	case lines%uint64(ways) != 0:
		return 0, fmt.Errorf("%d lines not divisible by %d ways", lines, ways)
	}
	sets := lines / uint64(ways)
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("%d sets (%d lines / %d ways) is not a power of two", sets, lines, ways)
	}
	return int(sets), nil
}

// New builds a cache with the given geometry. sizeBytes/64 must be
// divisible by ways into a power-of-two number of sets.
func New(name string, sizeBytes uint64, ways int, latency uint64, policy ReplPolicy) *Cache {
	return NewWith(nil, name, sizeBytes, ways, latency, policy)
}

// NewWith is New drawing the SoA line arrays from pool (nil pool =
// plain New).
func NewWith(pool *recycle.Pool, name string, sizeBytes uint64, ways int, latency uint64, policy ReplPolicy) *Cache {
	sets, err := geometry(sizeBytes, ways)
	if err != nil {
		// Configurations reach here through HierarchyConfig.Validate, so
		// a bad geometry at this point is a caller bug.
		panic(fmt.Sprintf("cache %s: %v", name, err))
	}
	vw, fw := (ways+63)/64, (ways+7)/8
	c := &Cache{
		sets:      sets,
		ways:      ways,
		latency:   latency,
		policy:    policy,
		tags:      pool.Uint64s(sets * ways),
		fpOff:     vw,
		dirtyOff:  vw + fw,
		rrpvOff:   2*vw + fw,
		stride:    2*vw + fw,
		setMask:   uint64(sets - 1),
		setsShift: uint(bits.TrailingZeros(uint(sets))),
	}
	// The 2-bit RRPVs of an SRRIP set are packed 32 ways to a word, so
	// victim selection and aging are a handful of bit operations per
	// word. rrpvLast masks the last word to the real ways.
	if policy == SRRIP {
		c.stride += (ways + 31) / 32
		c.rrpvLast = rrpvLanes
		if ways%32 != 0 {
			c.rrpvLast &= 1<<(2*uint(ways%32)) - 1
		}
	}
	// LRU stamps are replacement state only under LRU; SRRIP caches
	// never read them, so the largest levels skip them. The lookup
	// records share one allocation with the stamps, so they add none.
	stamps := 0
	if policy == LRU {
		stamps = sets * ways
	}
	words := pool.Uint64s(stamps + sets*c.stride)
	c.lru, c.setMeta = words[:stamps], words[stamps:]
	return c
}

// Recycle hands the line arrays back to pool; the cache must not be
// used afterwards.
func (c *Cache) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	pool.PutUint64s(c.tags)
	pool.PutUint64s(c.lru[:len(c.lru)+len(c.setMeta)])
	c.tags, c.lru, c.setMeta = nil, nil, nil
}

// Latency returns the access latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Stats returns the cache statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

// locate returns pa's set and its encoded tags entry.
func (c *Cache) locate(pa mem.PAddr) (set int, enc uint64) {
	line := uint64(pa) >> mem.CacheLineShift
	return int(line & c.setMask), line>>c.setsShift<<1 | 1
}

// find returns the way of set whose tags entry is enc, or -1. The
// fingerprint lanes that match enc's tag byte are the only candidates;
// the lowest is exact and any others are confirmed against tags, as is
// every lane of an invalid way (its tags entry is 0, never enc).
func (c *Cache) find(set int, enc uint64) int {
	fps := c.setMeta[set*c.stride+c.fpOff : set*c.stride+c.dirtyOff]
	key := (enc >> 1 & 0xff) * lanes
	for i, x := range fps {
		x ^= key
		for m := (x - lanes) &^ x & laneTop; m != 0; m &= m - 1 {
			// Lanes past the last way are padding, never a match.
			if w := i<<3 | bits.TrailingZeros64(m)>>3; w < c.ways && c.tags[set*c.ways+w] == enc {
				return w
			}
		}
	}
	return -1
}

// firstInvalid returns the lowest invalid way of the set whose record
// starts at o, or -1 when the set is full.
func (c *Cache) firstInvalid(o int) int {
	for i, v := range c.setMeta[o : o+c.fpOff] {
		// Clear bits past the last way are padding, never a free way.
		if w := i<<6 | bits.TrailingZeros64(^v); v != ^uint64(0) && w < c.ways {
			return w
		}
	}
	return -1
}

// Lookup probes the cache without recording a hit/miss stat; it returns
// whether the line is present. Used by the hierarchy for inclusive checks.
func (c *Cache) Lookup(pa mem.PAddr) bool {
	return c.find(c.locate(pa)) >= 0
}

// Access performs a demand access, updating replacement state and stats.
// It reports whether the access hit.
func (c *Cache) Access(pa mem.PAddr, write bool, t mem.AccessType) bool {
	c.tick++
	set, enc := c.locate(pa)
	w := c.find(set, enc)
	if w < 0 {
		c.stats.Misses[t]++
		return false
	}
	c.stats.Hits[t]++
	o := set * c.stride
	if c.policy == LRU {
		c.lru[set*c.ways+w] = c.tick
	} else {
		c.setMeta[o+c.rrpvOff+w>>5] &^= 3 << (uint(w&31) * 2)
	}
	if write {
		c.setMeta[o+c.dirtyOff+w>>6] |= 1 << (w & 63)
	}
	return true
}

// install places the line for pa after the caller has just missed it in
// this cache: the line is absent, so it places the line with no probe.
// It returns the physical address of an evicted dirty line (writeback
// needed) and whether a dirty eviction occurred. prefetch marks fills
// triggered by a prefetcher, which count in PrefetchFills and insert at
// a colder LRU position. Every call site states why the line cannot
// have arrived between the miss and the install.
func (c *Cache) install(pa mem.PAddr, write, prefetch bool) (mem.PAddr, bool) {
	set, enc := c.locate(pa)
	return c.place(set, enc, write, prefetch)
}

// fill is install for a line that may already be present: it probes
// first, and a line it finds is left in place (marked dirty by a write)
// with no tick and no replacement update. An absent line is placed like
// install, and its victim returned.
func (c *Cache) fill(pa mem.PAddr, write, prefetch bool) (wbAddr mem.PAddr, wb, present bool) {
	set, enc := c.locate(pa)
	if w := c.find(set, enc); w >= 0 {
		if write {
			c.setMeta[set*c.stride+c.dirtyOff+w>>6] |= 1 << (w & 63)
		}
		return 0, false, true
	}
	wbAddr, wb = c.place(set, enc, write, prefetch)
	return wbAddr, wb, false
}

// place ticks and puts the absent line enc into set, in the first
// invalid way if there is one, else over the policy's victim, and
// returns the address of an evicted dirty line and whether there was
// one.
func (c *Cache) place(set int, enc uint64, write, prefetch bool) (wbAddr mem.PAddr, wb bool) {
	c.tick++
	base, o := set*c.ways, set*c.stride
	w := -1
	if c.valid < len(c.tags) {
		w = c.firstInvalid(o)
	}
	if w >= 0 {
		c.valid++
		c.setMeta[o+w>>6] |= 1 << (w & 63)
	} else {
		w = c.victim(base, o)
		c.stats.Evictions++
	}
	// Lines are never invalidated, so an invalid way's dirty bit is clear
	// and only a victim can write back.
	d, bit := &c.setMeta[o+c.dirtyOff+w>>6], uint64(1)<<(w&63)
	if *d&bit != 0 {
		c.stats.Writebacks++
		wb = true
		wbAddr = c.reconstruct(c.tags[base+w]>>1, set)
	}
	if write {
		*d |= bit
	} else {
		*d &^= bit
	}

	c.tags[base+w] = enc
	fp := &c.setMeta[o+c.fpOff+w>>3]
	sh := uint(w&7) * 8
	*fp = *fp&^(0xff<<sh) | (enc>>1&0xff)<<sh
	if prefetch {
		c.stats.PrefetchFills++
	}
	// LRU stamps are replacement state only for LRU caches; skipping the
	// write for SRRIP saves a line touch in a never-read array.
	if c.policy == LRU {
		c.lru[base+w] = c.tick
		if prefetch && c.tick > uint64(c.ways) {
			c.lru[base+w] = c.tick - uint64(c.ways) // colder LRU position
		}
	} else {
		r := &c.setMeta[o+c.rrpvOff+w>>5]
		sh := uint(w&31) * 2
		*r = *r&^(3<<sh) | uint64(srripMax-1)<<sh
	}
	return wbAddr, wb
}

// victim returns the way a full set evicts — the first way holding the
// oldest LRU stamp, or the first way at the set's maximum RRPV after
// SRRIP aging — for the set whose ways start at base and whose record
// starts at o.
func (c *Cache) victim(base, o int) int {
	if c.policy == LRU {
		row := c.lru[base : base+c.ways]
		v, oldest := 0, row[0]
		for w, s := range row {
			if s < oldest {
				v, oldest = w, s
			}
		}
		return v
	}
	// Bit-parallel form of the textbook "age all until some way reaches
	// srripMax" loop over the packed 2-bit fields: classify each word's
	// maximum RRPV from the field bit planes, keep the first way holding
	// the set's maximum, and age every real way's field by the same
	// deficit (no field can carry: all end at most at srripMax). Padding
	// fields past the last way stay 0, so only the aging needs rrpvLast.
	rs := c.setMeta[o+c.rrpvOff : o+c.stride]
	v, top := 0, uint64(0)
	for i, r := range rs {
		var f, lvl uint64
		if f = r >> 1 & r & rrpvLanes; f != 0 {
			lvl = srripMax
		} else if f = r & (rrpvLanes << 1); f != 0 {
			lvl = 2
		} else if f = r; f != 0 {
			lvl = 1
		}
		if lvl > top {
			v, top = i<<5|bits.TrailingZeros64(f)>>1, lvl
			if top == srripMax {
				return v
			}
		}
	}
	last := len(rs) - 1
	for i := range rs[:last] {
		rs[i] += (srripMax - top) * rrpvLanes
	}
	rs[last] += (srripMax - top) * c.rrpvLast
	return v
}

func (c *Cache) reconstruct(tag uint64, set int) mem.PAddr {
	return mem.PAddr((tag<<c.setsShift + uint64(set)) << mem.CacheLineShift)
}
