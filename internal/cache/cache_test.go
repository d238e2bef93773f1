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
	c.fill(pa, false, false)
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
	c.fill(a, true, false)
	wb, dirty, _ := c.fill(b, false, false)
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
	c.fill(a, false, false)
	c.fill(b, false, false)
	c.Access(a, false, mem.ATData) // promote a (rrpv=0)
	cA := mem.PAddr(1024)
	c.fill(cA, false, false) // must evict b, not a
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
				c.fill(pa, false, false)
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
// kept as the differential reference: every way scan walks the whole
// tags row, fill resolves presence, the first invalid way and the victim
// input in one fused pass, and SRRIP keeps a byte per way with the
// textbook aging loop.
type refCache struct {
	sets, ways int
	policy     ReplPolicy
	tags       []uint64
	lru        []uint64
	dirty      []bool
	rrpv       []uint8
	tick       uint64
	stats      Stats
	setMask    uint64
	setsShift  uint
	// touched lists the sets Access and fill reached since the last
	// diffCacheState, the only sets an op may have changed.
	touched []int
}

func newRefCache(sizeBytes uint64, ways int, policy ReplPolicy) *refCache {
	sets := int(sizeBytes/mem.CacheLineBytes) / ways
	c := &refCache{
		sets: sets, ways: ways, policy: policy,
		tags:      make([]uint64, sets*ways),
		dirty:     make([]bool, sets*ways),
		setMask:   uint64(sets - 1),
		setsShift: uint(bits.TrailingZeros(uint(sets))),
	}
	if policy == LRU {
		c.lru = make([]uint64, sets*ways)
	} else {
		c.rrpv = make([]uint8, sets*ways)
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
	c.touched = append(c.touched, set)
	enc := tag<<1 | 1
	base := set * c.ways
	for w, e := range c.tags[base : base+c.ways] {
		if e == enc {
			c.stats.Hits[t]++
			i := base + w
			if c.policy == LRU {
				c.lru[i] = c.tick
			} else {
				c.rrpv[i] = 0
			}
			c.dirty[i] = c.dirty[i] || write
			return true
		}
	}
	c.stats.Misses[t]++
	return false
}

// fill probes first and ticks only when it places, like Cache.fill.
func (c *refCache) fill(pa mem.PAddr, write, prefetch bool) (wbAddr mem.PAddr, wb, present bool) {
	set, tag := c.setOf(pa), c.tagOf(pa)
	c.touched = append(c.touched, set)
	enc := tag<<1 | 1
	base := set * c.ways
	row := c.tags[base : base+c.ways : base+c.ways]
	invalid := -1
	lruVictim := 0
	oldest := ^uint64(0)
	maxR := uint8(0)
	for w, e := range row {
		if e == enc {
			c.dirty[base+w] = c.dirty[base+w] || write
			return 0, false, true
		}
		if e == 0 {
			if invalid < 0 {
				invalid = w
			}
			continue
		}
		if c.policy == LRU {
			if s := c.lru[base+w]; s < oldest {
				oldest = s
				lruVictim = w
			}
		} else {
			maxR = max(maxR, c.rrpv[base+w])
		}
	}
	c.tick++

	victim := -1
	switch {
	case invalid >= 0:
		victim = base + invalid
	case c.policy == LRU:
		victim = base + lruVictim
	default:
		age := uint8(srripMax) - maxR
		for w := base; w < base+c.ways; w++ {
			if victim < 0 && c.rrpv[w] == maxR {
				victim = w
			}
			c.rrpv[w] += age
		}
	}

	if c.tags[victim] != 0 {
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.Writebacks++
			wb = true
			wbAddr = mem.PAddr((c.tags[victim]>>1<<c.setsShift + uint64(set)) << mem.CacheLineShift)
		}
	}
	c.tags[victim] = enc
	c.dirty[victim] = write
	if prefetch {
		c.stats.PrefetchFills++
	}
	if c.policy == LRU {
		c.lru[victim] = c.tick
		if prefetch && c.tick > uint64(c.ways) {
			c.lru[victim] = c.tick - uint64(c.ways)
		}
	} else {
		c.rrpv[victim] = srripMax - 1
	}
	return wbAddr, wb, false
}

// invalid returns the number of invalid ways.
func (c *refCache) invalid() int {
	n := 0
	for _, e := range c.tags {
		if e == 0 {
			n++
		}
	}
	return n
}

// diffGeometries are the shapes the differential test drives: both
// sides of the fingerprint word, valid-mask and RRPV word boundaries
// (33-way SRRIP leaves one way in its last RRPV word, 64-way fills two
// words exactly), and the 12-way validation L3 whose fingerprint word
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
	{"33way-srrip", 4, 33, SRRIP},
	{"48way-srrip", 4, 48, SRRIP},
	{"64way-srrip", 2, 64, SRRIP},
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
		op, write, prefetch := b[0]%4, b[0]&0x08 != 0, b[0]&0x10 != 0
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
			wa, wd, wp := c.fill(pa, write, prefetch)
			ra, rd, rp := r.fill(pa, write, prefetch)
			got, want = [3]any{wa, wd, wp}, [3]any{ra, rd, rp}
		case 2:
			got, want = c.Lookup(pa), r.Lookup(pa)
		case 3:
			// A miss installs without a second probe.
			hit, rhit := c.Access(pa, write, at), r.Access(pa, write, at)
			got, want = hit, rhit
			if !hit && !rhit {
				wa, wd := c.install(pa, write, prefetch)
				ra, rd, _ := r.fill(pa, write, prefetch)
				got, want = [2]any{wa, wd}, [2]any{ra, rd}
			}
		}
		if got != want {
			t.Fatalf("%s step %d: op %d on %#x returned %v, reference %v", geo.name, step, op, pa, got, want)
		}
		if err := diffCacheState(c, r, true); err != nil {
			t.Fatalf("%s step %d: after op %d on %#x: %v", geo.name, step, op, pa, err)
		}
	}
	return r.stats
}

// diffCacheState compares the replacement and statistics state of c
// against the reference: the tick and stats, then way by way the sets
// r recorded as touched since the last call, or with full every set and
// the valid-line count. The set records must agree with the tags and
// keep their padding clear.
func diffCacheState(c *Cache, r *refCache, full bool) error {
	switch {
	case c.tick != r.tick:
		return fmt.Errorf("tick %d, reference %d", c.tick, r.tick)
	case c.stats != r.stats:
		return fmt.Errorf("stats %+v, reference %+v", c.stats, r.stats)
	case full && c.valid != len(r.tags)-r.invalid():
		return fmt.Errorf("%d valid lines, reference %d", c.valid, len(r.tags)-r.invalid())
	}
	sets := r.touched
	r.touched = r.touched[:0]
	if full {
		sets = nil
		for set := range c.sets {
			sets = append(sets, set)
		}
	}
	for _, set := range sets {
		if err := diffSet(c, r, set); err != nil {
			return err
		}
	}
	return nil
}

// diffSet compares one set of c against the reference.
func diffSet(c *Cache, r *refCache, set int) error {
	row := set * c.ways
	switch {
	case !slices.Equal(c.tags[row:row+c.ways], r.tags[row:row+c.ways]):
		return fmt.Errorf("set %d: tags %x, reference %x", set, c.tags[row:row+c.ways], r.tags[row:row+c.ways])
	case c.policy == LRU && !slices.Equal(c.lru[row:row+c.ways], r.lru[row:row+c.ways]):
		return fmt.Errorf("set %d: lru %v, reference %v", set, c.lru[row:row+c.ways], r.lru[row:row+c.ways])
	}
	o := set * c.stride
	for w := 0; w < c.ways; w++ {
		i := row + w
		e := c.tags[i]
		if valid := c.setMeta[o+w/64]>>(w%64)&1 == 1; valid != (e != 0) {
			return fmt.Errorf("set %d way %d: valid bit %v with tags entry %#x", set, w, valid, e)
		}
		if fp := uint8(c.setMeta[o+c.fpOff+w/8] >> (w % 8 * 8)); e != 0 && fp != uint8(e>>1) {
			return fmt.Errorf("set %d way %d: fingerprint %#x for tags entry %#x", set, w, fp, e)
		}
		if d := c.setMeta[o+c.dirtyOff+w/64]>>(w%64)&1 == 1; d != r.dirty[i] {
			return fmt.Errorf("set %d way %d: dirty %v, reference %v", set, w, d, r.dirty[i])
		}
		if c.policy == SRRIP {
			if rr := uint8(c.setMeta[o+c.rrpvOff+w/32] >> (w % 32 * 2) & 3); rr != r.rrpv[i] {
				return fmt.Errorf("set %d way %d: rrpv %d, reference %d", set, w, rr, r.rrpv[i])
			}
		}
	}
	for w := c.ways; w < 64*c.fpOff; w++ {
		if c.setMeta[o+w/64]>>(w%64)&1 != 0 || c.setMeta[o+c.dirtyOff+w/64]>>(w%64)&1 != 0 {
			return fmt.Errorf("set %d: padding way %d marked valid or dirty", set, w)
		}
	}
	for w := c.ways; c.policy == SRRIP && w < 32*(c.stride-c.rrpvOff); w++ {
		if c.setMeta[o+c.rrpvOff+w/32]>>(w%32*2)&3 != 0 {
			return fmt.Errorf("set %d: padding way %d has an rrpv", set, w)
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
				var hits uint64
				for _, h := range st.Hits {
					hits += h
				}
				if hits == 0 || st.Evictions == 0 || st.Writebacks == 0 || st.PrefetchFills == 0 {
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

// refHierarchy is the hierarchy before it had one victim path: its walk
// and fill functions verbatim over refCache levels, with refCache.fill
// standing in for Cache.install (they agree on an absent line). Every
// dirty victim it drops is counted by the site of the fill that evicted
// it, the baseline for writing all of them back.
type refHierarchy struct {
	L1I, L1D, L2, L3 *refCache
	lat              [3]uint64 // L1, L2, L3
	Dram             *dram.Controller
	ipStride         *IPStridePrefetcher
	stream           *StreamPrefetcher
	drops            [siteDemand + 1]uint64
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	h := &refHierarchy{
		L1I:  newRefCache(cfg.L1ISize, cfg.L1Ways, LRU),
		L1D:  newRefCache(cfg.L1DSize, cfg.L1Ways, LRU),
		L2:   newRefCache(cfg.L2Size, cfg.L2Ways, SRRIP),
		L3:   newRefCache(cfg.L3Size, cfg.L3Ways, SRRIP),
		lat:  [3]uint64{cfg.L1Latency, cfg.L2Latency, cfg.L3Latency},
		Dram: dram.NewController(dram.Config{}),
	}
	if cfg.EnablePrefetch {
		h.ipStride = NewIPStride(256, 2)
		h.stream = NewStream(16, 4)
	}
	return h
}

// fill fills c and counts a dirty victim as dropped at site s; it
// returns the victim and whether the line was present.
func (h *refHierarchy) fill(c *refCache, s site, la mem.PAddr, write, prefetch bool) (mem.PAddr, bool, bool) {
	wb, dirty, present := c.fill(la, write, prefetch)
	if dirty {
		h.drops[s]++
	}
	return wb, dirty, present
}

func (h *refHierarchy) Access(pa mem.PAddr, write bool, t mem.AccessType, pc uint64, now uint64) uint64 {
	la := mem.Line(pa)
	lat := h.lat[0]
	hitL1 := h.L1D.Access(la, write, t)
	if h.ipStride != nil && t == mem.ATData {
		for _, ppa := range h.ipStride.Observe(pc, la) {
			h.prefetchFill(mem.Line(ppa), t, now)
		}
	}
	if hitL1 {
		return lat
	}
	lat += h.lat[1]
	if h.L2.Access(la, write, t) {
		h.fill(h.L1D, siteL2Hit, la, write, false)
		return lat
	}
	if h.stream != nil && (t == mem.ATData || t == mem.ATKernel) {
		for _, ppa := range h.stream.Observe(la) {
			h.prefetchFillL2(ppa, t, now)
		}
	}
	lat += h.lat[2]
	if h.L3.Access(la, write, t) {
		h.fillUp(la, write)
		return lat
	}
	lat += h.Dram.Access(la, false, t, now+lat)
	h.fillAll(la, write, t, now+lat)
	return lat
}

func (h *refHierarchy) FetchInstr(pa mem.PAddr, now uint64) uint64 {
	la := mem.Line(pa)
	lat := h.lat[0]
	if h.L1I.Access(la, false, mem.ATInstr) {
		return lat
	}
	lat += h.lat[1]
	if h.L2.Access(la, false, mem.ATInstr) {
		h.fill(h.L1I, siteInstr, la, false, false)
		return lat
	}
	lat += h.lat[2]
	if h.L3.Access(la, false, mem.ATInstr) {
		h.fill(h.L2, siteInstr, la, false, false)
		h.fill(h.L1I, siteInstr, la, false, false)
		return lat
	}
	lat += h.Dram.Access(la, false, mem.ATInstr, now+lat)
	h.fill(h.L3, siteInstr, la, false, false)
	h.fill(h.L2, siteInstr, la, false, false)
	h.fill(h.L1I, siteInstr, la, false, false)
	return lat
}

func (h *refHierarchy) fillUp(la mem.PAddr, write bool) {
	if wb, dirty, _ := h.L2.fill(la, write, false); dirty {
		h.fill(h.L3, siteWriteBack, wb, true, false)
	}
	if wb, dirty, _ := h.L1D.fill(la, write, false); dirty {
		h.fill(h.L2, siteWriteBack, wb, true, false)
	}
}

func (h *refHierarchy) fillAll(la mem.PAddr, write bool, t mem.AccessType, now uint64) {
	if wb, dirty, _ := h.L3.fill(la, write, false); dirty {
		h.Dram.Access(wb, true, t, now)
	}
	h.fillUp(la, write)
}

func (h *refHierarchy) prefetchFill(la mem.PAddr, t mem.AccessType, now uint64) {
	if _, _, present := h.fill(h.L1D, sitePrefetch, la, false, true); present {
		return
	}
	if !h.L2.Lookup(la) {
		if _, _, present := h.fill(h.L3, sitePrefetch, la, false, true); !present {
			h.Dram.Access(la, false, t, now)
			h.fill(h.L2, sitePrefetch, la, false, true)
		}
	}
}

func (h *refHierarchy) prefetchFillL2(la mem.PAddr, t mem.AccessType, now uint64) {
	if _, _, present := h.fill(h.L2, sitePrefetch, la, false, true); present {
		return
	}
	if _, _, present := h.fill(h.L3, sitePrefetch, la, false, true); !present {
		h.Dram.Access(la, false, t, now)
	}
}

// scaledCaches returns the scaled caches every perfbench workload runs
// (experiments.ScaledCaches, written out here because importing
// experiments would be a cycle): 8 KB L1s, a 128 KB L2 and a 256 KB L3.
func scaledCaches(prefetch bool) HierarchyConfig {
	c := DefaultHierarchyConfig()
	c.L1ISize, c.L1DSize, c.L2Size, c.L3Size = 8*mem.KB, 8*mem.KB, 128*mem.KB, 256*mem.KB
	c.EnablePrefetch = prefetch
	return c
}

// hierGeometries are the hierarchies the differential test drives: the
// Table 4 caches, and the scaled ones with and without the prefetchers.
var hierGeometries = []struct {
	name string
	cfg  HierarchyConfig
}{
	{"table4", DefaultHierarchyConfig()},
	{"scaled", scaledCaches(true)},
	{"scaled-noprefetch", scaledCaches(false)},
}

// runHierarchyOps drives a Hierarchy and a refHierarchy of geometry g
// with the ops encoded in b (4 bytes each) and fails on the first
// divergence in a latency, in any level's state or stats, or in the
// DRAM stats. After each op it compares the sets the op touched, and
// every level in full every fullDiffEvery ops and after the last. Lines are drawn from 16 sets and 48 tags per set, so every
// level overflows and evicts dirty lines. Op kinds, by b[0]%8:
//
//	0, 1  a load or store by one of four PCs, each walking its own stride
//	      through the tags of one set, so the IP-stride prefetcher trains
//	2, 3  a load or store at a drawn line by a drawn PC
//	4     a kernel access, sequential through a page, so the stream
//	      prefetcher trains
//	5     a page-table access
//	6     a translation-metadata access
//	7     an instruction fetch
//
// It returns the reference, whose drops count the victims dropped by
// site.
func runHierarchyOps(t testing.TB, g int, b []byte) *refHierarchy {
	geo := hierGeometries[g]
	h, r := NewHierarchy(geo.cfg, dram.NewController(dram.Config{})), newRefHierarchy(geo.cfg)
	// A line's tag starts above every level's set bits, so the low bits
	// pick one set in each level.
	shift := uint(bits.TrailingZeros(uint(len(h.L3.tags) / h.L3.ways)))
	line := func(tag, set uint64) mem.PAddr { return mem.PAddr((tag%48<<shift | set) << mem.CacheLineShift) }
	var cursor [4]uint64
	var kernel, now uint64
	for step := 0; len(b) >= 4; step, b = step+1, b[4:] {
		full := step%fullDiffEvery == fullDiffEvery-1 || len(b) < 8
		op, write := b[0]%8, b[0]&0x80 != 0
		pc := 0x400000 + uint64(b[1]&3)*4
		var got, want uint64
		switch op {
		case 0, 1:
			k := uint64(b[1] & 3)
			cursor[k] += k + 1
			pa := line(cursor[k], k)
			got, want = h.Access(pa, write, mem.ATData, pc, now), r.Access(pa, write, mem.ATData, pc, now)
		case 2, 3:
			pa := line(uint64(b[2]), uint64(b[3]%16))
			pc += uint64(b[1]>>2) * 4
			got, want = h.Access(pa, write, mem.ATData, pc, now), r.Access(pa, write, mem.ATData, pc, now)
		case 4:
			kernel++
			pa := line(kernel>>6, kernel&63)
			got, want = h.Access(pa, write, mem.ATKernel, 0, now), r.Access(pa, write, mem.ATKernel, 0, now)
		case 5:
			pa := line(uint64(b[2]), uint64(b[3]%16))
			got, want = h.AccessPTE(pa, write, now), r.Access(pa, write, mem.ATPTE, 0, now)
		case 6:
			pa := line(uint64(b[2]), uint64(b[3]%16))
			got, want = h.AccessMeta(pa, write, now), r.Access(pa, write, mem.ATTransMeta, 0, now)
		case 7:
			pa := line(uint64(b[2]), uint64(b[3]%16))
			got, want = h.FetchInstr(pa, now), r.FetchInstr(pa, now)
		}
		if got != want {
			t.Fatalf("%s step %d: op %d latency %d, reference %d", geo.name, step, op, got, want)
		}
		for i, lv := range [...]struct {
			c *Cache
			r *refCache
		}{{h.L1I, r.L1I}, {h.L1D, r.L1D}, {h.L2, r.L2}, {h.L3, r.L3}} {
			if err := diffCacheState(lv.c, lv.r, full); err != nil {
				t.Fatalf("%s step %d: after op %d: %s: %v", geo.name, step, op, [...]string{"L1I", "L1D", "L2", "L3"}[i], err)
			}
		}
		if *h.Dram.Stats() != *r.Dram.Stats() {
			t.Fatalf("%s step %d: after op %d: DRAM stats %+v, reference %+v", geo.name, step, op, *h.Dram.Stats(), *r.Dram.Stats())
		}
		now += got + uint64(b[3]>>4)
	}
	return r
}

// fullDiffEvery is how many ops runHierarchyOps runs between full
// compares: a Table 4 level takes ~2 ms to compare whole, against
// microseconds for the few sets one op touches.
const fullDiffEvery = 256

// TestHierarchyMatchesReference drives the one-victim-path Hierarchy
// and the refHierarchy with the same seeded op streams on every
// hierGeometries shape and requires identical latencies and state after
// every op. Every site the drops table drops at must have dropped a
// dirty victim, and demand fills must have written some back, so that
// flipping any entry of the table shows.
func TestHierarchyMatchesReference(t *testing.T) {
	for g, geo := range hierGeometries {
		t.Run(geo.name, func(t *testing.T) {
			ops := make([]byte, 4*3000)
			rng := rand.New(rand.NewPCG(1, uint64(g)))
			for i := range ops {
				ops[i] = byte(rng.Uint32())
			}
			r := runHierarchyOps(t, g, ops)
			t.Logf("dirty victims dropped by site %v; DRAM writes %d", r.drops, r.Dram.Stats().Writes)
			for s, n := range r.drops {
				if drops>>s&1 != 0 && n == 0 && !(site(s) == sitePrefetch && !geo.cfg.EnablePrefetch) {
					t.Errorf("site %d dropped no dirty victim: stream too tame", s)
				}
			}
			if r.Dram.Stats().Writes == 0 {
				t.Error("no demand fill wrote a victim back: stream too tame")
			}
		})
	}
}

// FuzzHierarchyOps explores op streams beyond the seeded ones:
//
//	go test -fuzz=FuzzHierarchyOps -fuzztime=30s -run '^$' ./internal/cache
func FuzzHierarchyOps(f *testing.F) {
	for g := range hierGeometries {
		f.Add(uint8(g), []byte{0x80, 0, 0, 0, 0x80, 0, 0, 0, 0x80, 0, 0, 0, 0x87, 0, 1, 2, 4, 0, 0, 0, 5, 0, 3, 4})
	}
	f.Fuzz(func(t *testing.T, g uint8, ops []byte) {
		runHierarchyOps(t, int(g)%len(hierGeometries), ops)
	})
}
