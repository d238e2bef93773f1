package tlb

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/mem"
)

// refPWC and refMetaCache are the page-walk cache and the metadata cache
// as they were before KeyCache replaced both, kept verbatim apart from
// their names as the reference for TestKeyCacheMatchesReference.
type refPWC struct {
	level   int // the radix level whose *node pointer* this caches (3, 2, 1)
	sets    int
	ways    int
	latency uint64
	lines   []pwcLine
	tick    uint64
	stats   Stats
}

type pwcLine struct {
	tag   uint64
	node  mem.PAddr
	valid bool
	lru   uint64
}

func newRefPWC(level, entries, ways int, latency uint64) *refPWC {
	return &refPWC{
		level:   level,
		sets:    entries / ways,
		ways:    ways,
		latency: latency,
		lines:   make([]pwcLine, entries),
	}
}

func (p *refPWC) tagOf(va mem.VAddr) uint64 {
	shift := uint(39 - 9*(p.level-1))
	return uint64(va) >> shift
}

func (p *refPWC) Lookup(va mem.VAddr) (mem.PAddr, bool) {
	p.tick++
	tag := p.tagOf(va)
	base := int(tag%uint64(p.sets)) * p.ways
	for w := 0; w < p.ways; w++ {
		ln := &p.lines[base+w]
		if ln.valid && ln.tag == tag {
			ln.lru = p.tick
			p.stats.Hits++
			return ln.node, true
		}
	}
	p.stats.Misses++
	return 0, false
}

func (p *refPWC) Insert(va mem.VAddr, node mem.PAddr) {
	p.tick++
	p.stats.Fills++
	tag := p.tagOf(va)
	base := int(tag%uint64(p.sets)) * p.ways
	victim := base
	oldest := ^uint64(0)
	for w := 0; w < p.ways; w++ {
		ln := &p.lines[base+w]
		if ln.valid && ln.tag == tag {
			ln.node = node
			ln.lru = p.tick
			return
		}
		if !ln.valid {
			victim = base + w
			oldest = 0
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = base + w
		}
	}
	p.lines[victim] = pwcLine{tag: tag, node: node, valid: true, lru: p.tick}
}

type refMetaCache struct {
	name    string
	entries int
	latency uint64
	keys    []metaLine
	tick    uint64
	stats   Stats
}

type metaLine struct {
	key   uint64
	val   uint64
	valid bool
	lru   uint64
}

func newRefMetaCache(name string, entries int, latency uint64) *refMetaCache {
	return &refMetaCache{name: name, entries: entries, latency: latency, keys: make([]metaLine, entries)}
}

func (c *refMetaCache) Lookup(key uint64) (uint64, bool) {
	c.tick++
	for i := range c.keys {
		ln := &c.keys[i]
		if ln.valid && ln.key == key {
			ln.lru = c.tick
			c.stats.Hits++
			return ln.val, true
		}
	}
	c.stats.Misses++
	return 0, false
}

func (c *refMetaCache) Insert(key, val uint64) {
	c.tick++
	c.stats.Fills++
	victim := 0
	oldest := ^uint64(0)
	for i := range c.keys {
		ln := &c.keys[i]
		if ln.valid && ln.key == key {
			ln.val = val
			ln.lru = c.tick
			return
		}
		if !ln.valid {
			victim = i
			oldest = 0
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = i
		}
	}
	c.keys[victim] = metaLine{key: key, val: val, valid: true, lru: c.tick}
}

func (c *refMetaCache) Invalidate(key uint64) {
	for i := range c.keys {
		if c.keys[i].valid && c.keys[i].key == key {
			c.keys[i].valid = false
		}
	}
}

// TestKeyCacheMatchesReference drives a KeyCache and the cache it
// replaced through one random sequence of lookups, inserts and
// invalidations, and requires every returned value, every hit or miss
// and the statistics after every op to agree: at the PWC geometries
// (Table 4's 32/4, the scaled experiments' 4/2) for each radix depth,
// and at the one-set geometries of Utopia's TAR/SF caches and the
// nested walk's host cache.
func TestKeyCacheMatchesReference(t *testing.T) {
	const ops = 20000
	for _, g := range []struct{ entries, ways int }{{32, 4}, {4, 2}, {16, 1}} {
		for level := 1; level <= 3; level++ {
			t.Run(fmt.Sprintf("pwc/%d-%dway/depth%d", g.entries, g.ways, level), func(t *testing.T) {
				ref := newRefPWC(level, g.entries, g.ways, 2)
				kc := NewKeyCache(g.entries, g.ways, 2)
				shift := uint(39 - 9*(level-1))
				rng := rand.New(rand.NewPCG(uint64(level), uint64(g.entries)))
				// Draw VAs from a few times the cache's reach at this
				// depth, so lines hit, conflict and get evicted.
				span := uint64(g.entries) * 3
				for i := 0; i < ops; i++ {
					va := mem.VAddr(rng.Uint64N(span)<<shift | rng.Uint64N(1<<shift))
					if rng.IntN(2) == 0 {
						wantNode, wantOK := ref.Lookup(va)
						node, ok := kc.Lookup(uint64(va) >> shift)
						if ok != wantOK || mem.PAddr(node) != wantNode {
							t.Fatalf("op %d: lookup(%#x) = %#x %v, reference %#x %v", i, va, node, ok, wantNode, wantOK)
						}
					} else {
						node := mem.PAddr(rng.Uint64N(1<<20)) << 12
						ref.Insert(va, node)
						kc.Insert(uint64(va)>>shift, uint64(node))
					}
					if *kc.Stats() != ref.stats {
						t.Fatalf("op %d: stats %+v, reference %+v", i, *kc.Stats(), ref.stats)
					}
				}
				if kc.Stats().Hits == 0 || kc.Stats().Misses == 0 {
					t.Fatalf("sequence never hit or never missed: %+v", *kc.Stats())
				}
			})
		}
	}
	for _, entries := range []int{1024, 64, 4} {
		t.Run(fmt.Sprintf("one-set/%d", entries), func(t *testing.T) {
			ref := newRefMetaCache("ref", entries, 2)
			kc := NewKeyCache(entries, entries, 2)
			rng := rand.New(rand.NewPCG(7, uint64(entries)))
			keys := uint64(entries) * 2
			for i := 0; i < ops; i++ {
				key := rng.Uint64N(keys) * 0x1_0000_0001 // spread over the word
				switch rng.IntN(5) {
				case 0, 1:
					wantVal, wantOK := ref.Lookup(key)
					val, ok := kc.Lookup(key)
					if ok != wantOK || val != wantVal {
						t.Fatalf("op %d: lookup(%#x) = %d %v, reference %d %v", i, key, val, ok, wantVal, wantOK)
					}
				case 2, 3:
					val := rng.Uint64()
					ref.Insert(key, val)
					kc.Insert(key, val)
				default:
					ref.Invalidate(key)
					kc.Invalidate(key)
				}
				if *kc.Stats() != ref.stats {
					t.Fatalf("op %d: stats %+v, reference %+v", i, *kc.Stats(), ref.stats)
				}
			}
			if kc.Stats().Hits == 0 || kc.Stats().Misses == 0 {
				t.Fatalf("sequence never hit or never missed: %+v", *kc.Stats())
			}
		})
	}
}
