package pagetable

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

// schemeOf returns sub-table i (0 = 4K, 1 = 2M) of the hashed table pt.
func schemeOf[S scheme](pt PageTable, i int) S { return pt.(*hashed).sub[i].(S) }

// echResizes returns the resize count across an ECH table's sub-tables.
func echResizes(pt PageTable) uint64 {
	return schemeOf[*cuckooTable](pt, 0).Resizes + schemeOf[*cuckooTable](pt, 1).Resizes
}

// memOp is one kernel access: 'L'oad, 'S'tore or 'A'LU, and its
// address or instruction count.
type memOp struct {
	kind byte
	v    uint64
}

// memLog records the kernel accesses of the ops it is handed.
type memLog struct{ ops []memOp }

func (l *memLog) Load(pa mem.PAddr)  { l.ops = append(l.ops, memOp{'L', uint64(pa)}) }
func (l *memLog) Store(pa mem.PAddr) { l.ops = append(l.ops, memOp{'S', uint64(pa)}) }
func (l *memLog) ALU(n uint32)       { l.ops = append(l.ops, memOp{'A', uint64(n)}) }

// hashedBuild makes a table on alloc, drawing host storage from pool,
// and returns it with a reader of its per-table counters.
type hashedBuild func(alloc FrameAllocator, pool *recycle.Pool) (PageTable, func() []uint64)

// hashedCase is one hashed design, folded and as it was before the
// fold, and the 4K and 2M pages its ops pick from.
type hashedCase struct {
	name      string
	got, want hashedBuild
	vas4K     []mem.VAddr
	vas2M     []mem.VAddr
}

// smallCuckoo is the cuckoo table echOrphanTraffic drives: its first
// generation has 512 slots a way, so a few hundred inserts resize it.
func smallCuckoo(alloc FrameAllocator, pool *recycle.Pool) *cuckooTable {
	return &cuckooTable{alloc: alloc, cur: newCuckooArray(alloc, echPageSlots, 0, pool)}
}

func cuckooCounters(ts ...*cuckooTable) []uint64 {
	var c []uint64
	for _, t := range ts {
		c = append(c, t.Kicks, t.Migrations, t.Resizes)
	}
	return c
}

// hashedPages are the pages the ops of a hashedDiff pick from. The 4K
// pages sit four to an HDC cluster, 512 clusters in all, which HDC's
// 896 4K slots hold and HT's 448 buckets chain. The small ECH's 4K
// pages are the crowded VPNs of echOrphanTraffic, which fail inserts
// and migrate when mapped in order, and scattered ones. The 2M pages
// are a dense run and the huge pages around some of the 4K pages.
// Finding the crowded VPNs takes a while, so it runs once.
var hashedPages = sync.OnceValue(func() (p struct{ vas4K, vas2M, crowded []mem.VAddr }) {
	rng := xrand.New(0x5A11)
	for i := 0; i < 512; i++ {
		base := mem.VAddr(rng.Uint64n(1<<36)) &^ (32*mem.KB - 1)
		for j := 0; j < 4; j++ {
			p.vas4K = append(p.vas4K, base+mem.VAddr(j*2+1)*4*mem.KB)
		}
		if i < 16 {
			p.vas2M = append(p.vas2M, mem.Page2M.PageBase(base))
		}
	}
	for i := 0; i < 64; i++ {
		p.vas2M = append(p.vas2M, mem.VAddr(0x40_0000_0000+i*2*mem.MB))
	}
	vpns := append(crowdedVPNs(newCuckooArray(&bumpAlloc{}, 2*echPageSlots, 1, nil), 128, 600),
		crowdedVPNs(newCuckooArray(&bumpAlloc{}, echPageSlots, 0, nil), 32, 160)...)
	for _, vpn := range vpns {
		p.crowded = append(p.crowded, mem.VAddr(vpn)<<12)
	}
	p.crowded = append(p.crowded, p.vas4K[:200]...)
	return p
})

// hashedCases returns HDC, HT, full-size ECH and small ECH over
// hashedPages.
func hashedCases() []hashedCase {
	pages := hashedPages()
	vas4K, vas2M, crowded := pages.vas4K, pages.vas2M, pages.crowded
	fullECH, smallECH := echBuilds(newCuckooTable), echBuilds(smallCuckoo)
	return []hashedCase{
		{"hdc", func(a FrameAllocator, pool *recycle.Pool) (PageTable, func() []uint64) {
			pt := mustTable(NewHDCWith(a, 64*mem.KB, pool))
			return pt, func() []uint64 {
				s, l := schemeOf[*hdcTable](pt, 0), schemeOf[*hdcTable](pt, 1)
				return []uint64{s.Probes, s.Lookups, l.Probes, l.Lookups}
			}
		}, func(a FrameAllocator, pool *recycle.Pool) (PageTable, func() []uint64) {
			pt := mustTable(newRefHDC(a, 64*mem.KB, pool))
			return pt, func() []uint64 {
				return []uint64{pt.sub[0].Probes, pt.sub[0].Lookups, pt.sub[1].Probes, pt.sub[1].Lookups}
			}
		}, vas4K, vas2M},
		{"ht", func(a FrameAllocator, pool *recycle.Pool) (PageTable, func() []uint64) {
			pt := mustTable(NewHTWith(a, 32*mem.KB, pool))
			return pt, func() []uint64 {
				s, l := schemeOf[*htTable](pt, 0), schemeOf[*htTable](pt, 1)
				return []uint64{s.ChainHops, s.Lookups, s.OverflowNodes, l.ChainHops, l.Lookups, l.OverflowNodes}
			}
		}, func(a FrameAllocator, pool *recycle.Pool) (PageTable, func() []uint64) {
			pt := mustTable(newRefHT(a, 32*mem.KB, pool))
			return pt, func() []uint64 {
				s, l := pt.sub[0], pt.sub[1]
				return []uint64{s.ChainHops, s.Lookups, s.OverflowNodes, l.ChainHops, l.Lookups, l.OverflowNodes}
			}
		}, vas4K, vas2M},
		{"ech", fullECH[0], fullECH[1], vas4K, vas2M},
		{"ech-small", smallECH[0], smallECH[1], crowded, vas2M},
	}
}

// echBuilds returns the folded ECH and its reference over 4K and 2M
// cuckoo tables that table makes.
func echBuilds(table func(FrameAllocator, *recycle.Pool) *cuckooTable) [2]hashedBuild {
	return [2]hashedBuild{
		func(a FrameAllocator, pool *recycle.Pool) (PageTable, func() []uint64) {
			s, l := table(a, pool), table(a, pool)
			return &hashed{sub: [2]scheme{s, l}}, func() []uint64 { return cuckooCounters(s, l) }
		},
		func(a FrameAllocator, pool *recycle.Pool) (PageTable, func() []uint64) {
			pt := newRefECH(a, table(a, pool), table(a, pool))
			return pt, func() []uint64 { return cuckooCounters(pt.tables[0].cuckooTable, pt.tables[1].cuckooTable) }
		},
	}
}

// hashedSide is one of the two tables a hashedDiff drives.
type hashedSide struct {
	build    hashedBuild
	alloc    FrameAllocator
	pool     *recycle.Pool
	pt       PageTable
	counters func() []uint64
	log      memLog
}

// renew recycles the side's table, if it has one, into its pool and
// builds a new one from the pool on the same allocator.
func (s *hashedSide) renew() {
	if s.pt != nil {
		s.pt.(recycle.Recycler).Recycle(s.pool)
	}
	s.pt, s.counters = s.build(s.alloc, s.pool)
}

// hashedOutcome is what one op returns.
type hashedOutcome struct {
	failed bool // Insert's error; the 1 GB message names the design only in the reference
	ok     bool
	entry  Entry
	walk   WalkResult
	mapped uint64
}

// apply runs one op, decoded from code and x, on the side's table.
func (s *hashedSide) apply(c *hashedCase, code byte, x uint16) hashedOutcome {
	va := c.vas4K[int(x)%len(c.vas4K)]
	if code&0x10 != 0 {
		va = c.vas2M[int(x)%len(c.vas2M)]
	}
	sizes := [3]mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G}
	e := Entry{Frame: mem.PAddr(x+1) << 21, Size: sizes[int(code>>5)%3], Present: x&1 == 0, Swapped: x&1 != 0,
		SwapSlot: uint64(x), Dirty: code&0x80 != 0, Writable: x&2 != 0}
	var out hashedOutcome
	switch code & 0xf {
	case 0, 1, 2:
		e.Size = mem.Page4K
		if code&0x10 != 0 {
			e.Size = mem.Page2M
		}
		out.failed = s.pt.Insert(va, e, &s.log) != nil
	case 3:
		out.failed = s.pt.Insert(va&^(mem.GB-1), e, &s.log) != nil
	case 4, 5:
		out.ok = s.pt.Update(va, e, &s.log)
	case 6, 7, 8:
		out.entry, out.ok = s.pt.Remove(va+mem.VAddr(x&0xfff), &s.log)
	case 9, 10, 11, 12:
		out.walk = s.pt.Walk(va + mem.VAddr(uint64(x)*0x1235%(2*mem.MB)))
	case 13, 14:
		out.entry, out.ok = s.pt.Lookup(va + mem.VAddr(x&0xfff))
	case 15:
		switch x % 64 {
		case 0:
			s.renew()
		case 1:
			// Map every 4K page in order: the small ECH's crowded
			// pages then fail inserts, resize and migrate.
			for i, va := range c.vas4K {
				e := Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}
				out.failed = out.failed || s.pt.Insert(va, e, &s.log) != nil
			}
		default:
			out.walk = s.pt.Walk(va)
		}
	}
	out.mapped = s.pt.MappedPages()
	return out
}

// hashedDiff drives a design's folded table and its reference through
// the same ops, each on an allocator and a pool of its own.
type hashedDiff struct {
	c     *hashedCase
	sides [2]*hashedSide // folded, reference
	peak  []uint64       // each counter's largest value over the run
}

func newHashedDiff(c *hashedCase) *hashedDiff {
	d := &hashedDiff{c: c}
	for i, b := range [2]hashedBuild{c.got, c.want} {
		d.sides[i] = &hashedSide{build: b, alloc: phys.NewSlab(phys.New(256 * mem.MB)), pool: recycle.New()}
		d.sides[i].renew()
	}
	return d
}

// step runs one op on both sides and reports how they differ: in the
// op's outcome, its kernel accesses or the tables' counters.
func (d *hashedDiff) step(code byte, x uint16) error {
	got, want := d.sides[0], d.sides[1]
	g, w := got.apply(d.c, code, x), want.apply(d.c, code, x)
	if g != w {
		return fmt.Errorf("op %#x/%d: folded %+v, reference %+v", code, x, g, w)
	}
	if !slices.Equal(got.log.ops, want.log.ops) {
		return fmt.Errorf("op %#x/%d: folded kernel accesses %v, reference %v", code, x, got.log.ops, want.log.ops)
	}
	got.log.ops, want.log.ops = got.log.ops[:0], want.log.ops[:0]
	gc, wc := got.counters(), want.counters()
	if !slices.Equal(gc, wc) {
		return fmt.Errorf("op %#x/%d: folded counters %v, reference %v", code, x, gc, wc)
	}
	if d.peak == nil {
		d.peak = make([]uint64, len(gc))
	}
	for i, v := range gc {
		d.peak[i] = max(d.peak[i], v)
	}
	return nil
}

// finish compares the frames the two allocators hand out next.
func (d *hashedDiff) finish() error {
	g, _ := d.sides[0].alloc.AllocFrame()
	w, _ := d.sides[1].alloc.AllocFrame()
	if g != w {
		return fmt.Errorf("next frame: folded %#x, reference %#x", g, w)
	}
	return nil
}

// runHashedDiff drives every design through the ops in data, three
// bytes an op.
func runHashedDiff(t *testing.T, data []byte) []*hashedDiff {
	var ds []*hashedDiff
	for _, c := range hashedCases() {
		d := newHashedDiff(&c)
		for i := 0; i+3 <= len(data); i += 3 {
			if err := d.step(data[i], uint16(data[i+1])<<8|uint16(data[i+2])); err != nil {
				t.Fatalf("%s, op %d: %v", c.name, i/3, err)
			}
		}
		if err := d.finish(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ds = append(ds, d)
	}
	return ds
}

// hashedOps returns n random ops.
func hashedOps(seed uint64, n int) []byte {
	rng := xrand.New(seed)
	data := make([]byte, 3*n)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

// TestHashedTablesMatchReference drives HDC, HT and ECH, full-size and
// small, through a fill of every 4K page and random 4K, 2M and 1G
// inserts, updates, removes, walks, lookups and recycle-then-reuse. It
// requires each op to return, walk, access kernel memory and count
// exactly as the tables did before they shared one shell. The sequence
// must reach HDC probe runs, HT chain hops and overflow groups, and
// the small ECH's kicks, resizes and gradual migration.
func TestHashedTablesMatchReference(t *testing.T) {
	ds := runHashedDiff(t, append([]byte{15, 0, 1}, hashedOps(0xD1FF, 20000)...))
	for _, d := range ds {
		c := d.peak
		var reached bool
		switch d.c.name {
		case "hdc":
			reached = c[0] > c[1]
		case "ht":
			reached = c[0] > 0 && c[2] > 0
		case "ech-small":
			reached = c[0] > 0 && c[1] > 0 && c[2] > 0
		default:
			reached = true
		}
		t.Logf("%s: peak counters %v", d.c.name, c)
		if !reached {
			t.Errorf("%s: peak counters %v miss the probe runs, chains or migration the test is for", d.c.name, c)
		}
	}
}

// FuzzHashedTables is TestHashedTablesMatchReference on any op stream.
func FuzzHashedTables(f *testing.F) {
	f.Add([]byte{})
	f.Add(hashedOps(1, 64))
	f.Add(append([]byte{15, 0, 1}, hashedOps(2, 1500)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		runHashedDiff(t, data)
	})
}
