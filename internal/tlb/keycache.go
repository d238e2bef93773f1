package tlb

// KeyCache is a set-associative LRU cache of 64-bit keys to 64-bit
// values. The page-walk caches are instances keyed by the VA bits above
// their level (Table 4: three 32-entry 4-way PWCs, which let the walker
// skip the upper accesses of a walk; Barr et al., "Translation
// Caching"). Utopia's TAR and SF caches and the nested walk's host cache
// are one-set instances over opaque keys.
type KeyCache struct {
	sets    int
	ways    int
	latency uint64
	lines   []keyLine
	tick    uint64
	stats   Stats
}

type keyLine struct {
	key   uint64
	val   uint64
	valid bool
	lru   uint64
}

// NewKeyCache builds a cache of entries lines in sets of ways lines; a
// ways of entries makes it fully associative.
func NewKeyCache(entries, ways int, latency uint64) *KeyCache {
	return &KeyCache{
		sets:    entries / ways,
		ways:    ways,
		latency: latency,
		lines:   make([]keyLine, entries),
	}
}

// Latency returns the lookup latency in cycles.
func (c *KeyCache) Latency() uint64 { return c.latency }

// Stats returns the accumulated statistics.
func (c *KeyCache) Stats() *Stats { return &c.stats }

// Lookup returns the cached value for key.
func (c *KeyCache) Lookup(key uint64) (uint64, bool) {
	c.tick++
	base := int(key%uint64(c.sets)) * c.ways
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.key == key {
			ln.lru = c.tick
			c.stats.Hits++
			return ln.val, true
		}
	}
	c.stats.Misses++
	return 0, false
}

// Insert caches key → val, replacing the set's first invalid line or
// else its least recently used one.
func (c *KeyCache) Insert(key, val uint64) {
	c.tick++
	c.stats.Fills++
	base := int(key%uint64(c.sets)) * c.ways
	victim := base
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.key == key {
			ln.val = val
			ln.lru = c.tick
			return
		}
		if !ln.valid {
			victim = base + w
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = base + w
		}
	}
	c.lines[victim] = keyLine{key: key, val: val, valid: true, lru: c.tick}
}

// Invalidate drops key if present.
func (c *KeyCache) Invalidate(key uint64) {
	base := int(key%uint64(c.sets)) * c.ways
	for w := 0; w < c.ways; w++ {
		if ln := &c.lines[base+w]; ln.valid && ln.key == key {
			ln.valid = false
		}
	}
}
