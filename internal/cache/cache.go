// Package cache implements the on-chip cache hierarchy of the simulated
// system: set-associative caches with LRU and SRRIP replacement, an
// IP-stride prefetcher at L1D and a stream prefetcher at L2 (Table 4), and
// a Hierarchy type that composes the levels on top of a DRAM controller.
//
// Accesses are tagged with a mem.AccessType so the hierarchy can report
// how much page-table state lives in each cache level and how injected
// kernel streams pollute the caches — the interference effects Virtuoso's
// imitation methodology makes visible.
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

func (p ReplPolicy) String() string {
	if p == SRRIP {
		return "srrip"
	}
	return "lru"
}

const srripMax = 3 // 2-bit RRPV

// Lines are stored structure-of-arrays, one densely packed word or byte
// per way instead of a 32-byte struct:
//
//	tags[i] = (tag << 1) | 1 for a valid line, 0 for an invalid one
//	lru[i]  = last-use stamp (LRU replacement)
//	meta[i] = dirty (bit 0) | rrpv (bits 1-2) | atype (bits 3-7)
//
// Set lookup reads a per-set record of stride words in setMeta instead of
// every tag (vw = ceil(ways/64), fw = ceil(ways/8)):
//
//	setMeta[o : o+vw]       valid mask: bit w%64 of word w/64 is set iff way w is valid
//	setMeta[o+vw : o+vw+fw] fingerprints: byte w%8 of word w/8 is the low 8 bits of way w's tag
//	setMeta[o+vw+fw]        packed SRRIP only: the set's 2-bit RRPVs, way w at bits 2w..2w+1
//
// find XORs each fingerprint word with the probed tag's low byte copied
// into every lane and picks the zero lanes with the SWAR test
// (x-0x01..)&^x&0x80..; only those candidate ways are compared against
// the full tags entry. fill takes the first invalid way from the valid
// mask and runs the policy's victim scan only when the set is full.
const (
	metaDirty     = 1 << 0
	metaRrpvShift = 1
	metaRrpvMask  = 0b11 << metaRrpvShift
	metaTypeShift = 3

	lanes   = 0x0101010101010101 // one bit at the bottom of every byte lane
	laneTop = lanes << 7         // one bit at the top of every byte lane
)

// Stats counts per-type cache activity.
type Stats struct {
	Hits          [mem.NumAccessTypes]uint64
	Misses        [mem.NumAccessTypes]uint64
	Evictions     uint64
	Writebacks    uint64
	PrefetchFills uint64
}

// HitRate returns the overall hit fraction.
func (s *Stats) HitRate() float64 {
	var h, m uint64
	for i := 0; i < mem.NumAccessTypes; i++ {
		h += s.Hits[i]
		m += s.Misses[i]
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Cache is one set-associative cache level.
type Cache struct {
	name      string
	sets      int
	ways      int
	latency   uint64
	policy    ReplPolicy
	tags      []uint64 // sets*ways, row-major; (tag<<1)|valid
	lru       []uint64
	meta      []uint8
	setMeta   []uint64 // sets*stride per-set lookup records (layout above)
	stride    int
	fpOff     int // first fingerprint word of a record (= vw)
	fpEnd     int // one past the last fingerprint word (= vw+fw)
	tick      uint64
	stats     Stats
	setMask   uint64
	setsShift uint // log2(sets): tag extraction shifts instead of dividing
	packed    bool // SRRIP with ways <= 32: RRPVs live in setMeta[o+fpEnd], not meta
	rrpvLo    uint64
	rrpvHi    uint64
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
	if mem.NumAccessTypes > 32 {
		panic("cache: access types no longer fit the packed meta byte")
	}
	vw, fw := (ways+63)/64, (ways+7)/8
	c := &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		latency:   latency,
		policy:    policy,
		tags:      pool.Uint64s(sets * ways),
		meta:      pool.Uint8s(sets * ways),
		stride:    vw + fw,
		fpOff:     vw,
		fpEnd:     vw + fw,
		setMask:   uint64(sets - 1),
		setsShift: uint(bits.TrailingZeros(uint(sets))),
	}
	// Up to 32 ways the per-way 2-bit RRPVs of an SRRIP set fit one
	// uint64, so victim selection and aging become a handful of bit
	// operations instead of a byte loop (wider SRRIP caches keep the
	// per-way meta loop). Behavior is identical either way.
	if policy == SRRIP && ways <= 32 {
		c.packed = true
		c.stride++
		c.rrpvLo = 0x5555555555555555
		if ways < 32 {
			c.rrpvLo &= 1<<(2*uint(ways)) - 1
		}
		c.rrpvHi = c.rrpvLo << 1
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
	pool.PutUint8s(c.meta)
	c.tags, c.lru, c.meta, c.setMeta = nil, nil, nil, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Latency returns the access latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Stats returns the cache statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

// SizeBytes returns the capacity.
func (c *Cache) SizeBytes() uint64 {
	return uint64(c.sets*c.ways) * mem.CacheLineBytes
}

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
	fps := c.setMeta[set*c.stride+c.fpOff : set*c.stride+c.fpEnd]
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
	i := set*c.ways + w
	switch {
	case c.policy == LRU:
		c.lru[i] = c.tick
		c.meta[i] &^= metaRrpvMask
	case c.packed:
		c.setMeta[set*c.stride+c.fpEnd] &^= 3 << (uint(w) * 2)
	default:
		c.meta[i] &^= metaRrpvMask
	}
	if write {
		c.meta[i] |= metaDirty
	}
	return true
}

// Fill inserts the line for pa after a miss and returns the physical
// address of an evicted dirty line (writeback needed) and whether a dirty
// eviction occurred. prefetch marks fills triggered by a prefetcher, which
// insert at distant re-reference (SRRIP) / colder LRU position.
func (c *Cache) Fill(pa mem.PAddr, write bool, t mem.AccessType, prefetch bool) (mem.PAddr, bool) {
	wbAddr, wb, _ := c.fill(pa, write, t, prefetch, false)
	return wbAddr, wb
}

// FillIfAbsent is a fused Lookup+Fill for the prefetch paths: when the
// line is absent it inserts it exactly like Fill(pa, false, t, true);
// when present it changes nothing at all (a pure probe, like Lookup).
// It reports whether the line was already present. Writebacks of
// evicted dirty lines are not returned — the prefetch fills drop them.
func (c *Cache) FillIfAbsent(pa mem.PAddr, t mem.AccessType) bool {
	_, _, present := c.fill(pa, false, t, true, true)
	return present
}

// fill implements Fill and FillIfAbsent. probe defers the replacement
// tick until the line is known absent, so a probe that finds the line
// leaves the cache untouched; a non-probe fill ticks up front exactly
// like the historical Fill (the advance on a present line keeps LRU
// stamp values bit for bit compatible).
func (c *Cache) fill(pa mem.PAddr, write bool, t mem.AccessType, prefetch, probe bool) (wbAddr mem.PAddr, wb, present bool) {
	if !probe {
		c.tick++
	}
	set, enc := c.locate(pa)
	base := set * c.ways
	if w := c.find(set, enc); w >= 0 {
		// Already present (e.g., race between prefetch and demand).
		if write {
			c.meta[base+w] |= metaDirty
		}
		return 0, false, true
	}
	if probe {
		c.tick++
	}

	// The first invalid way if there is one, else the policy's victim.
	o := set * c.stride
	w := c.firstInvalid(o)
	if w < 0 {
		w = c.victim(base, o)
		c.stats.Evictions++
		if c.meta[base+w]&metaDirty != 0 {
			c.stats.Writebacks++
			wb = true
			wbAddr = c.reconstruct(c.tags[base+w]>>1, set)
		}
	}

	victim := base + w
	c.tags[victim] = enc
	c.setMeta[o+w>>6] |= 1 << (w & 63)
	fp := &c.setMeta[o+c.fpOff+w>>3]
	sh := uint(w&7) * 8
	*fp = *fp&^(0xff<<sh) | (enc>>1&0xff)<<sh
	m := uint8(t) << metaTypeShift
	if !c.packed {
		m |= uint8(srripMax-1) << metaRrpvShift
	}
	if write {
		m |= metaDirty
	}
	c.meta[victim] = m
	if c.packed {
		r := &c.setMeta[o+c.fpEnd]
		sh := uint(w) * 2
		*r = *r&^(3<<sh) | uint64(srripMax-1)<<sh
	}
	if prefetch {
		c.stats.PrefetchFills++
	}
	// LRU stamps are replacement state only for LRU caches; skipping the
	// write for SRRIP saves a line touch in a never-read array.
	if c.policy == LRU {
		c.lru[victim] = c.tick
		if prefetch && c.tick > uint64(c.ways) {
			c.lru[victim] = c.tick - uint64(c.ways) // colder LRU position
		}
	}
	return wbAddr, wb, false
}

// victim returns the way a full set evicts — the first way holding the
// oldest LRU stamp, or the first way at the set's maximum RRPV after
// SRRIP aging — for the set whose ways start at base and whose record
// starts at o.
func (c *Cache) victim(base, o int) int {
	switch {
	case c.policy == LRU:
		row := c.lru[base : base+c.ways]
		v, oldest := 0, row[0]
		for w, s := range row {
			if s < oldest {
				v, oldest = w, s
			}
		}
		return v
	case c.packed:
		// Bit-parallel form of the textbook "age all until some way
		// reaches srripMax" loop over the packed 2-bit fields: classify
		// the maximum RRPV from the field bit planes, take the first way
		// holding it, and age every field by the same deficit (no field
		// can carry: all end at most at srripMax).
		r := &c.setMeta[o+c.fpEnd]
		if f3 := *r >> 1 & *r & c.rrpvLo; f3 != 0 {
			return bits.TrailingZeros64(f3) >> 1
		}
		var v int
		var age uint64
		if hi := *r & c.rrpvHi; hi != 0 {
			v, age = bits.TrailingZeros64(hi)>>1, 1
		} else if *r != 0 {
			v, age = bits.TrailingZeros64(*r)>>1, 2
		} else {
			v, age = 0, 3
		}
		*r += age * c.rrpvLo
		return v
	default:
		// Equivalent to the textbook "age all until some way reaches
		// srripMax" loop: every way ages by the same deficit, and the
		// victim is the first way that started at the maximum RRPV.
		row := c.meta[base : base+c.ways]
		maxR := uint8(0)
		for _, m := range row {
			maxR = max(maxR, m&metaRrpvMask)
		}
		v := -1
		for w, m := range row {
			if v < 0 && m&metaRrpvMask == maxR {
				v = w
			}
			row[w] = m + srripMax<<metaRrpvShift - maxR
		}
		return v
	}
}

func (c *Cache) reconstruct(tag uint64, set int) mem.PAddr {
	return mem.PAddr((tag<<c.setsShift + uint64(set)) << mem.CacheLineShift)
}

// Invalidate drops the line holding pa if present, returning whether it
// was dirty. The way's fingerprint byte is left stale: a stale lane can
// only raise a candidate that the way's zero tags entry then rejects.
func (c *Cache) Invalidate(pa mem.PAddr) bool {
	set, enc := c.locate(pa)
	w := c.find(set, enc)
	if w < 0 {
		return false
	}
	i, o := set*c.ways+w, set*c.stride
	d := c.meta[i]&metaDirty != 0
	c.tags[i] = 0
	if c.policy == LRU {
		c.lru[i] = 0
	}
	c.meta[i] = 0
	c.setMeta[o+w>>6] &^= 1 << (w & 63)
	if c.packed {
		c.setMeta[o+c.fpEnd] &^= 3 << (uint(w) * 2)
	}
	return d
}

// OccupancyOf returns the number of valid lines whose last fill was of
// type t — used to report how much page-table state resides in a level.
func (c *Cache) OccupancyOf(t mem.AccessType) int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != 0 && mem.AccessType(c.meta[i]>>metaTypeShift) == t {
			n++
		}
	}
	return n
}
