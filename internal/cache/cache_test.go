package cache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/mem"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := New("t", 4*mem.KB, 4, 4, LRU)
	pa := mem.PAddr(0x1000)
	if c.Access(pa, false, mem.ATData) {
		t.Fatal("hit on empty cache")
	}
	c.Fill(pa, false, mem.ATData, false)
	if !c.Access(pa, false, mem.ATData) {
		t.Fatal("miss after fill")
	}
	// Same line, different word.
	if !c.Access(pa+32, false, mem.ATData) {
		t.Fatal("miss within line")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := New("t", 256, 1, 1, LRU) // 4 sets, direct-mapped
	a := mem.PAddr(0x0)
	b := a + 256 // same set (4 sets * 64B stride)
	c.Fill(a, true, mem.ATData, false)
	wb, dirty := c.Fill(b, false, mem.ATData, false)
	if !dirty {
		t.Fatal("dirty eviction not reported")
	}
	if wb != a {
		t.Fatalf("writeback address = %x, want %x", wb, a)
	}
}

func TestSRRIPVictimSelection(t *testing.T) {
	c := New("t", 512, 2, 1, SRRIP) // 4 sets, 2 ways
	a, b := mem.PAddr(0), mem.PAddr(512)
	c.Fill(a, false, mem.ATData, false)
	c.Fill(b, false, mem.ATData, false)
	c.Access(a, false, mem.ATData) // promote a (rrpv=0)
	cA := mem.PAddr(1024)
	c.Fill(cA, false, mem.ATData, false) // must evict b, not a
	if !c.Lookup(a) {
		t.Fatal("recently re-referenced line evicted under SRRIP")
	}
	if c.Lookup(b) {
		t.Fatal("distant line not evicted")
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	valid := []func(*HierarchyConfig){
		func(*HierarchyConfig) {},
		func(c *HierarchyConfig) { c.L3Ways = 12; c.L3Size = 1536 * mem.KB }, // validation L3
		func(c *HierarchyConfig) { c.L2Ways = 128; c.L2Size = 128 * 64 * 2 }, // two valid-mask words
	}
	for i, mod := range valid {
		cfg := DefaultHierarchyConfig()
		mod(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid config %d: %v", i, err)
		}
	}
	invalid := []struct {
		want string
		mod  func(*HierarchyConfig)
	}{
		{"L1I", func(c *HierarchyConfig) { c.L1ISize = 0 }},
		{"L1D", func(c *HierarchyConfig) { c.L1DSize = 32 }}, // under one line
		{"L1I", func(c *HierarchyConfig) { c.L1Ways = 0 }},
		{"L2", func(c *HierarchyConfig) { c.L2Ways = -4 }},
		{"L2", func(c *HierarchyConfig) { c.L2Ways = 12 }},         // 32768 lines / 12
		{"L3", func(c *HierarchyConfig) { c.L3Size = 3 * mem.MB }}, // 3072 sets
		{"L3", func(c *HierarchyConfig) { c.L3Ways = 64; c.L3Size = 64 * 64 / 2 }},
	}
	for i, tc := range invalid {
		cfg := DefaultHierarchyConfig()
		tc.mod(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("invalid config %d: err = %v, want one naming %s", i, err, tc.want)
		}
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(), dram.NewController(dram.Config{}))
	pa := mem.PAddr(0x123400)
	l1 := h.L1D.Latency()
	cold := h.Access(pa, false, mem.ATData, 0, 0)
	warm := h.Access(pa, false, mem.ATData, 0, cold)
	if warm != l1 {
		t.Fatalf("warm access latency = %d, want L1 %d", warm, l1)
	}
	if cold <= h.L3.Latency() {
		t.Fatalf("cold access latency %d should include DRAM", cold)
	}
}

func TestHierarchyPTEAttribution(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(), dram.NewController(dram.Config{}))
	h.AccessPTE(0x5000, false, 0)
	if h.L1D.Stats().Misses[mem.ATPTE] != 1 {
		t.Fatal("PTE access not attributed")
	}
	if got := h.Dram.Stats().Accesses[mem.ATPTE]; got != 1 {
		t.Fatalf("DRAM PTE accesses = %d", got)
	}
}

func TestIPStridePrefetcher(t *testing.T) {
	p := NewIPStride(64, 2)
	pc := uint64(0x400100)
	var got []mem.PAddr
	for i := 0; i < 6; i++ {
		got = p.Observe(pc, mem.PAddr(0x1000+i*256))
	}
	if len(got) == 0 {
		t.Fatal("confirmed stride issued no prefetches")
	}
	if got[0] != mem.PAddr(0x1000+5*256+256) {
		t.Fatalf("prefetch addr = %x", got[0])
	}
}

func TestStreamPrefetcherStaysInPage(t *testing.T) {
	p := NewStream(4, 8)
	var all []mem.PAddr
	for i := 0; i < 8; i++ {
		all = p.Observe(mem.PAddr(0x2000 + i*64))
	}
	for _, a := range all {
		if uint64(a)>>12 != 0x2 {
			t.Fatalf("prefetch crossed page: %x", a)
		}
	}
}

// TestQuickCacheCoherentWithSet property-tests that a cache never
// reports a hit for a line that was never filled.
func TestQuickCacheCoherentWithSet(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New("q", 4*mem.KB, 4, 1, LRU)
		present := map[mem.PAddr]bool{}
		for _, op := range ops {
			pa := mem.Line(mem.PAddr(op) << 6)
			if op%2 == 0 {
				c.Fill(pa, false, mem.ATData, false)
				present[pa] = true
			} else if c.Access(pa, false, mem.ATData) && !present[pa] {
				return false // phantom hit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the linear-scan cache the fingerprint lookup replaced,
// kept verbatim in behaviour as the differential reference: every way
// scan walks the whole tags row, and fill resolves presence, the first
// invalid way and the victim input in one fused pass.
type refCache struct {
	sets, ways int
	policy     ReplPolicy
	tags       []uint64
	lru        []uint64
	meta       []uint8
	rrpv       []uint64
	tick       uint64
	stats      Stats
	setMask    uint64
	setsShift  uint
	packed     bool
	rrpvLo     uint64
	rrpvHi     uint64
}

func newRefCache(sizeBytes uint64, ways int, policy ReplPolicy) *refCache {
	sets := int(sizeBytes/mem.CacheLineBytes) / ways
	c := &refCache{
		sets: sets, ways: ways, policy: policy,
		tags:      make([]uint64, sets*ways),
		meta:      make([]uint8, sets*ways),
		setMask:   uint64(sets - 1),
		setsShift: uint(bits.TrailingZeros(uint(sets))),
	}
	if policy == LRU {
		c.lru = make([]uint64, sets*ways)
	}
	if policy == SRRIP && ways <= 32 {
		c.packed = true
		c.rrpv = make([]uint64, sets)
		c.rrpvLo = 0x5555555555555555
		if ways < 32 {
			c.rrpvLo &= 1<<(2*uint(ways)) - 1
		}
		c.rrpvHi = c.rrpvLo << 1
	}
	return c
}

func (c *refCache) setOf(pa mem.PAddr) int {
	return int((uint64(pa) >> mem.CacheLineShift) & c.setMask)
}

func (c *refCache) tagOf(pa mem.PAddr) uint64 {
	return uint64(pa) >> mem.CacheLineShift >> c.setsShift
}

func (c *refCache) Lookup(pa mem.PAddr) bool {
	set, tag := c.setOf(pa), c.tagOf(pa)
	enc := tag<<1 | 1
	base := set * c.ways
	for _, e := range c.tags[base : base+c.ways] {
		if e == enc {
			return true
		}
	}
	return false
}

func (c *refCache) Access(pa mem.PAddr, write bool, t mem.AccessType) bool {
	c.tick++
	set, tag := c.setOf(pa), c.tagOf(pa)
	enc := tag<<1 | 1
	base := set * c.ways
	for w, e := range c.tags[base : base+c.ways] {
		if e == enc {
			c.stats.Hits[t]++
			i := base + w
			switch {
			case c.policy == LRU:
				c.lru[i] = c.tick
				c.meta[i] &^= metaRrpvMask
			case c.packed:
				c.rrpv[set] &^= 3 << (uint(w) * 2)
			default:
				c.meta[i] &^= metaRrpvMask
			}
			if write {
				c.meta[i] |= metaDirty
			}
			return true
		}
	}
	c.stats.Misses[t]++
	return false
}

func (c *refCache) Fill(pa mem.PAddr, write bool, t mem.AccessType, prefetch bool) (mem.PAddr, bool) {
	wbAddr, wb, _ := c.fill(pa, write, t, prefetch, false)
	return wbAddr, wb
}

func (c *refCache) FillIfAbsent(pa mem.PAddr, t mem.AccessType) bool {
	_, _, present := c.fill(pa, false, t, true, true)
	return present
}

func (c *refCache) fill(pa mem.PAddr, write bool, t mem.AccessType, prefetch, probe bool) (wbAddr mem.PAddr, wb, present bool) {
	if !probe {
		c.tick++
	}
	set, tag := c.setOf(pa), c.tagOf(pa)
	enc := tag<<1 | 1
	base := set * c.ways
	row := c.tags[base : base+c.ways : base+c.ways]
	metaRow := c.meta[base : base+c.ways : base+c.ways]
	invalid := -1
	lruVictim := 0
	oldest := ^uint64(0)
	maxR := uint8(0)
	switch {
	case c.policy == LRU:
		lruRow := c.lru[base : base+c.ways : base+c.ways]
		for w := range row {
			e := row[w]
			if e == enc {
				if write {
					metaRow[w] |= metaDirty
				}
				return 0, false, true
			}
			if e == 0 {
				if invalid < 0 {
					invalid = w
				}
				continue
			}
			if invalid >= 0 {
				continue
			}
			if s := lruRow[w]; s < oldest {
				oldest = s
				lruVictim = w
			}
		}
	case c.packed:
		for w := range row {
			e := row[w]
			if e == enc {
				if write {
					metaRow[w] |= metaDirty
				}
				return 0, false, true
			}
			if e == 0 && invalid < 0 {
				invalid = w
			}
		}
	default:
		for w := range row {
			e := row[w]
			if e == enc {
				if write {
					metaRow[w] |= metaDirty
				}
				return 0, false, true
			}
			if e == 0 {
				if invalid < 0 {
					invalid = w
				}
				continue
			}
			if r := metaRow[w] & metaRrpvMask >> metaRrpvShift; r > maxR {
				maxR = r
			}
		}
	}
	if probe {
		c.tick++
	}

	victim := -1
	switch {
	case invalid >= 0:
		victim = base + invalid
	case c.policy == LRU:
		victim = base + lruVictim
	case c.packed:
		r := c.rrpv[set]
		var age uint64
		if f3 := r >> 1 & r & c.rrpvLo; f3 != 0 {
			victim = base + bits.TrailingZeros64(f3)>>1
		} else if hi := r & c.rrpvHi; hi != 0 {
			victim = base + bits.TrailingZeros64(hi)>>1
			age = 1
		} else if r != 0 {
			victim = base + bits.TrailingZeros64(r)>>1
			age = 2
		} else {
			victim = base
			age = 3
		}
		if age != 0 {
			c.rrpv[set] = r + age*c.rrpvLo
		}
	default:
		age := uint8(srripMax) - maxR
		for w := range metaRow {
			r := metaRow[w] & metaRrpvMask >> metaRrpvShift
			if victim < 0 && r == maxR {
				victim = base + w
			}
			if age > 0 {
				metaRow[w] += age << metaRrpvShift
			}
		}
	}

	if c.tags[victim] != 0 {
		c.stats.Evictions++
		if c.meta[victim]&metaDirty != 0 {
			c.stats.Writebacks++
			wb = true
			wbAddr = mem.PAddr((c.tags[victim]>>1<<c.setsShift + uint64(set)) << mem.CacheLineShift)
		}
	}
	c.tags[victim] = enc
	m := uint8(t) << metaTypeShift
	if !c.packed {
		m |= uint8(srripMax-1) << metaRrpvShift
	}
	if write {
		m |= metaDirty
	}
	c.meta[victim] = m
	if c.packed {
		sh := uint(victim-base) * 2
		c.rrpv[set] = c.rrpv[set]&^(3<<sh) | uint64(srripMax-1)<<sh
	}
	if prefetch {
		c.stats.PrefetchFills++
	}
	if c.policy == LRU {
		c.lru[victim] = c.tick
		if prefetch && c.tick > uint64(c.ways) {
			c.lru[victim] = c.tick - uint64(c.ways)
		}
	}
	return wbAddr, wb, false
}

func (c *refCache) Invalidate(pa mem.PAddr) bool {
	set, tag := c.setOf(pa), c.tagOf(pa)
	enc := tag<<1 | 1
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == enc {
			d := c.meta[base+w]&metaDirty != 0
			c.tags[base+w] = 0
			if c.policy == LRU {
				c.lru[base+w] = 0
			}
			c.meta[base+w] = 0
			if c.packed {
				c.rrpv[set] &^= 3 << (uint(w) * 2)
			}
			return d
		}
	}
	return false
}

func (c *refCache) OccupancyOf(t mem.AccessType) int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != 0 && mem.AccessType(c.meta[i]>>metaTypeShift) == t {
			n++
		}
	}
	return n
}

// diffGeometries are the shapes the differential test drives: both
// sides of the fingerprint word and valid-mask boundaries, packed and
// unpacked SRRIP, and the 12-way validation L3 whose fingerprint word
// has padding lanes.
var diffGeometries = []struct {
	name   string
	sets   int
	ways   int
	policy ReplPolicy
}{
	{"1way-lru", 16, 1, LRU},
	{"1way-srrip", 16, 1, SRRIP},
	{"8way-lru", 8, 8, LRU},
	{"12way-srrip", 8, 12, SRRIP},
	{"16way-srrip", 4, 16, SRRIP},
	{"48way-srrip", 4, 48, SRRIP},
	{"64way-lru", 2, 64, LRU},
	{"96way-lru", 2, 96, LRU},
}

// runCacheOps drives a Cache and a refCache of geometry g with the ops
// encoded in b (4 bytes each) and fails on the first divergence in a
// return value or in any state after an op. Tags are drawn so that sets
// overflow (evictions), a hot subset keeps hitting, and tags sharing
// their low byte collide in the fingerprint lanes. It returns the
// reference's final stats.
func runCacheOps(t testing.TB, g int, b []byte) Stats {
	geo := diffGeometries[g]
	size := uint64(geo.sets*geo.ways) * mem.CacheLineBytes
	c, r := New(geo.name, size, geo.ways, 1, geo.policy), newRefCache(size, geo.ways, geo.policy)
	for step := 0; len(b) >= 4; step, b = step+1, b[4:] {
		op, write, prefetch := b[0]%5, b[0]&0x08 != 0, b[0]&0x10 != 0
		at := mem.AccessType(int(b[0]>>5) % mem.NumAccessTypes)
		tag := uint64(b[2]) % uint64(2*geo.ways+3) // cold: up to ~2x the set
		if b[2] < 160 {
			tag = uint64(b[2]) % uint64(max(geo.ways/2, 1)) // hot
		}
		tag |= uint64(b[3]&3) << 8 // same fingerprint, different tag
		if b[3]&0x80 != 0 {
			tag |= 1 << 40
		}
		line := tag*uint64(geo.sets) + uint64(b[1])%uint64(geo.sets)
		pa := mem.PAddr(line<<mem.CacheLineShift | uint64(b[1]>>4)*4)

		var got, want any
		switch op {
		case 0:
			got, want = c.Access(pa, write, at), r.Access(pa, write, at)
		case 1:
			wa, wd := c.Fill(pa, write, at, prefetch)
			ra, rd := r.Fill(pa, write, at, prefetch)
			got, want = [2]any{wa, wd}, [2]any{ra, rd}
		case 2:
			got, want = c.FillIfAbsent(pa, at), r.FillIfAbsent(pa, at)
		case 3:
			got, want = c.Lookup(pa), r.Lookup(pa)
		case 4:
			got, want = c.Invalidate(pa), r.Invalidate(pa)
		}
		if got != want {
			t.Fatalf("%s step %d: op %d on %#x returned %v, reference %v", geo.name, step, op, pa, got, want)
		}
		if err := diffCacheState(c, r); err != nil {
			t.Fatalf("%s step %d: after op %d on %#x: %v", geo.name, step, op, pa, err)
		}
	}
	return r.stats
}

// diffCacheState compares every piece of replacement and statistics
// state, and checks that the lookup records agree with the tags.
func diffCacheState(c *Cache, r *refCache) error {
	switch {
	case c.tick != r.tick:
		return fmt.Errorf("tick %d, reference %d", c.tick, r.tick)
	case c.stats != r.stats:
		return fmt.Errorf("stats %+v, reference %+v", c.stats, r.stats)
	case !slices.Equal(c.tags, r.tags):
		return fmt.Errorf("tags %x, reference %x", c.tags, r.tags)
	case !slices.Equal(c.meta, r.meta):
		return fmt.Errorf("meta %x, reference %x", c.meta, r.meta)
	case !slices.Equal(c.lru, r.lru):
		return fmt.Errorf("lru %v, reference %v", c.lru, r.lru)
	}
	for at := mem.AccessType(0); int(at) < mem.NumAccessTypes; at++ {
		if got, want := c.OccupancyOf(at), r.OccupancyOf(at); got != want {
			return fmt.Errorf("OccupancyOf(%v) = %d, reference %d", at, got, want)
		}
	}
	for set := 0; set < c.sets; set++ {
		o := set * c.stride
		if c.packed && c.setMeta[o+c.fpEnd] != r.rrpv[set] {
			return fmt.Errorf("set %d rrpv %#x, reference %#x", set, c.setMeta[o+c.fpEnd], r.rrpv[set])
		}
		for w := 0; w < c.ways; w++ {
			e := c.tags[set*c.ways+w]
			if valid := c.setMeta[o+w/64]>>(w%64)&1 == 1; valid != (e != 0) {
				return fmt.Errorf("set %d way %d: valid bit %v with tags entry %#x", set, w, valid, e)
			}
			if fp := uint8(c.setMeta[o+c.fpOff+w/8] >> (w % 8 * 8)); e != 0 && fp != uint8(e>>1) {
				return fmt.Errorf("set %d way %d: fingerprint %#x for tags entry %#x", set, w, fp, e)
			}
		}
	}
	return nil
}

// TestCacheMatchesLinearScanReference drives the fingerprint-lookup
// Cache and the linear-scan refCache with the same seeded op streams on
// every diffGeometries shape and requires identical results and state
// after every op.
func TestCacheMatchesLinearScanReference(t *testing.T) {
	for g, geo := range diffGeometries {
		t.Run(geo.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				ops := make([]byte, 4*5000)
				rng := rand.New(rand.NewPCG(seed, uint64(g)))
				for i := range ops {
					ops[i] = byte(rng.Uint32())
				}
				st := runCacheOps(t, g, ops)
				if st.HitRate() == 0 || st.Evictions == 0 || st.Writebacks == 0 || st.PrefetchFills == 0 {
					t.Fatalf("seed %d: stream too tame to compare anything: %+v", seed, st)
				}
			}
		})
	}
}

// FuzzCacheOps explores op streams beyond the seeded ones:
//
//	go test -fuzz=FuzzCacheOps -fuzztime=30s -run '^$' ./internal/cache
func FuzzCacheOps(f *testing.F) {
	for g := range diffGeometries {
		f.Add(uint8(g), []byte{1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 4, 0, 1, 1, 3, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, g uint8, ops []byte) {
		runCacheOps(t, int(g)%len(diffGeometries), ops)
	})
}
