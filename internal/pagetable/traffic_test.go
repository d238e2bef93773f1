package pagetable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

// trafficLog is a recording instrument.KernelMem: every kernel access
// and every walk step is folded into one running hash, so two runs of
// the same op sequence agree only if they made the same accesses in
// the same order.
type trafficLog struct{ h hash.Hash }

func (l *trafficLog) put(tag byte, v uint64) {
	var b [9]byte
	b[0] = tag
	binary.LittleEndian.PutUint64(b[1:], v)
	l.h.Write(b[:])
}

func (l *trafficLog) Load(pa mem.PAddr)  { l.put('L', uint64(pa)) }
func (l *trafficLog) Store(pa mem.PAddr) { l.put('S', uint64(pa)) }
func (l *trafficLog) ALU(n uint32)       { l.put('A', uint64(n)) }

// walk records every step of a hardware walk of va and its outcome.
func (l *trafficLog) walk(pt PageTable, va mem.VAddr) {
	w := pt.Walk(va)
	for _, s := range w.Steps[:w.NSteps] {
		l.put('W', uint64(s.PA))
		l.put('l', uint64(s.Level))
	}
	found := uint64(0)
	if w.Found {
		found = 1
	}
	l.put('F', found)
	l.put('E', uint64(w.Entry.Frame))
}

// echTraffic drives ECH through 4K inserts past an elastic resize, walks
// and removes during the gradual migration, walks and removes against a
// 2M table that was never inserted into, and finally 2M inserts.
func echTraffic(l *trafficLog) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	pt := NewECHWith(alloc, nil)
	rng := xrand.New(0xEC4)
	// Before any insert: every probe misses in both tables.
	for i := 0; i < 16; i++ {
		va := mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		l.walk(pt, va)
		pt.Remove(va, l)
	}
	// Exceed 8K slots/way × 4 ways × 0.6, so the 4K table resizes and
	// migrates a few entries per insert from then on.
	const n = 24000
	vas := make([]mem.VAddr, n)
	for i := range vas {
		vas[i] = mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		pt.Insert(vas[i], Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, l)
		if i%97 == 0 {
			l.walk(pt, vas[i])
			l.walk(pt, vas[i]^0x1000)
		}
		if i%211 == 0 && i > 0 {
			pt.Remove(vas[i/2], l)
		}
		if i%307 == 0 {
			pt.Update(vas[i], Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true, Dirty: true}, l)
		}
	}
	for i := 0; i < n; i += 13 {
		l.walk(pt, vas[i])
	}
	// 2M inserts, walks and removes.
	for i := uint64(0); i < 64; i++ {
		va := mem.VAddr(0x40_0000_0000 + i*2*mem.MB)
		pt.Insert(va, Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l)
		l.walk(pt, va+0x1234)
		if i%3 == 0 {
			pt.Remove(va, l)
			l.walk(pt, va)
		}
	}
	l.put('R', pt.Resizes())
	l.put('M', pt.MappedPages())
	l.put('K', pt.tables[0].Kicks)
	l.put('G', pt.tables[0].Migrations)
	// The allocator's state after the sequence.
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
}

// echSparseTraffic drives ECH the way a THP point does: a few 4K and
// 2M inserts, walks and removes, so most of each generation's slots are
// never written. Both tables then resize, and the gradual migration
// scans old generations that are almost all empty.
func echSparseTraffic(l *trafficLog) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	pt := NewECHWith(alloc, nil)
	rng := xrand.New(0x5EC)
	var vas []mem.VAddr
	for i := 0; i < 40; i++ {
		va := mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		vas = append(vas, va)
		pt.Insert(va, Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, l)
		l.walk(pt, va)
		l.walk(pt, va+0x1000)
	}
	for i := uint64(0); i < 6; i++ {
		va := mem.VAddr(0x40_0000_0000 + i*2*mem.MB)
		pt.Insert(va, Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l)
		l.walk(pt, va+0x3000)
	}
	for i := 0; i < len(vas); i += 5 {
		pt.Remove(vas[i], l)
		l.walk(pt, vas[i])
		pt.Remove(vas[i], l)
	}
	for _, t := range pt.tables {
		t.resize(l)
	}
	// Migration runs a few entries per insert across mostly absent
	// slots; walks and removes see both generations meanwhile.
	for i := 0; i < 24; i++ {
		va := mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		pt.Insert(va, Entry{Frame: mem.PAddr(i+100) << 12, Size: mem.Page4K, Present: true}, l)
		l.walk(pt, va)
		l.walk(pt, vas[(i*7)%len(vas)])
		if i%4 == 0 {
			pt.Remove(vas[(i*3+1)%len(vas)], l)
		}
		pt.Update(vas[(i*5+2)%len(vas)], Entry{Frame: mem.PAddr(i+200) << 12, Size: mem.Page4K, Present: true, Dirty: true}, l)
	}
	pt.Insert(0x40_0000_0000+8*mem.MB, Entry{Frame: 0x9000_0000, Size: mem.Page2M, Present: true}, l)
	// A second resize finishes the first migration synchronously.
	pt.tables[0].resize(l)
	for _, va := range vas {
		l.walk(pt, va)
	}
	l.put('R', pt.Resizes())
	l.put('M', pt.MappedPages())
	l.put('G', pt.tables[0].Migrations+pt.tables[1].Migrations)
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
}

// crowdedVPNs returns the first n VPNs whose four way indices in a are
// all below slots.
func crowdedVPNs(a *cuckooArray, slots uint64, n int) []uint64 {
	var vpns []uint64
	for vpn := uint64(1); len(vpns) < n; vpn++ {
		crowded := true
		for w := 0; w < echWays && crowded; w++ {
			crowded = a.idx(w, vpn) < slots
		}
		if crowded {
			vpns = append(vpns, vpn)
		}
	}
	return vpns
}

// echOrphanTraffic drives one 4K cuckoo table whose first generation
// has 512 slots a way through both ways ECH loses translations. It
// first maps 600 VPNs that crowd the first 128 slots of each way of the
// second generation, then 160 that crowd the first 32 slots of each
// way of the first. Those run out of kicks: an insert fails and
// resizes, and the orphan re-insert reads the new generation's zero
// fields, so it maps VPN 0 to a zero entry and loses the displaced
// translation. The migration then moves the first 600 into their
// crowded slots, where inserts fail too, and migrateSome drops each
// failed insert's orphan. Removes and re-inserts then reuse emptied
// slots. The table takes its storage from pool and parks it there at
// the end.
func echOrphanTraffic(l *trafficLog, pool *recycle.Pool) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	t := &cuckooTable{alloc: alloc, pageSize: mem.Page4K, cur: newCuckooArray(alloc, echPageSlots, 0, pool)}
	vpns := append(crowdedVPNs(newCuckooArray(&bumpAlloc{}, 2*echPageSlots, 1, nil), 128, 600),
		crowdedVPNs(t.cur, 32, 160)...)
	e4 := func(i int) Entry { return Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true} }
	check := func(vpn uint64) bool {
		var w WalkResult
		e, ok := t.lookup(vpn, &w)
		for _, s := range w.Steps[:w.NSteps] {
			l.put('W', uint64(s.PA))
		}
		l.put('F', boolBit(ok))
		l.put('E', uint64(e.Frame))
		l.put('p', boolBit(e.Present))
		return ok
	}
	removed := map[uint64]bool{}
	for i, vpn := range vpns {
		t.insert(vpn, e4(i), l)
		if i%5 == 0 {
			check(vpn)
			check(vpns[i/2])
		}
		if i%23 == 0 && i > 0 {
			_, ok := t.remove(vpns[i/3], l)
			l.put('D', boolBit(ok))
			removed[vpns[i/3]] = true
		}
	}
	// Scattered inserts carry the migration to its end.
	for i := 0; t.old != nil; i++ {
		t.insert(1<<32+uint64(i)*7919, e4(3000+i), l)
	}
	lost := 0
	for _, vpn := range vpns {
		if !check(vpn) && !removed[vpn] {
			lost++
		}
	}
	if t.Resizes != 1 || lost < 2 || !check(0) {
		panic("ech-orphan: the sequence no longer loses translations on a failed insert and in the migration")
	}
	// Removes free slots of the new generation; overwriting and fresh
	// inserts take them again.
	for i := 0; i < len(vpns); i += 4 {
		_, ok := t.remove(vpns[i], l)
		l.put('D', boolBit(ok))
	}
	_, ok := t.remove(0, l)
	l.put('D', boolBit(ok))
	for i := 1; i < len(vpns); i += 3 {
		t.insert(vpns[i], e4(1000+i), l)
		t.insert(vpns[i]+1<<30, e4(2000+i), l)
	}
	for _, vpn := range append([]uint64{0}, vpns...) {
		check(vpn)
		check(vpn + 1<<30)
	}
	l.put('R', t.Resizes)
	l.put('K', t.Kicks)
	l.put('G', t.Migrations)
	l.put('U', t.cur.used)
	l.put('X', uint64(lost))
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
	t.recycle(pool)
}

// radixTraffic drives a radix table from pool through 4K, 2M and 1G
// inserts (dense runs, sparse pages, a PD that holds a 2M leaf beside a
// PT), an overwriting insert, updates and removes, and walks of
// unmapped and partially mapped addresses, then recycles it into pool.
func radixTraffic(l *trafficLog, pool *recycle.Pool) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	pt := NewRadixWith(alloc, pool)
	e4 := func(i uint64) Entry { return Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true} }
	check := func(va mem.VAddr) {
		l.walk(pt, va)
		e, ok := pt.Lookup(va)
		if ok {
			l.put('Q', uint64(e.Frame))
		} else {
			l.put('q', 0)
		}
	}
	// A dense 4K run across three PT nodes.
	dense := mem.VAddr(0x7f12_3450_0000)
	for i := uint64(0); i < 1200; i++ {
		must(pt.Insert(dense+mem.VAddr(i*4*mem.KB), e4(i), l))
	}
	// Sparse 4K pages, one per 2 MB, and one per 1 GB.
	for i := uint64(0); i < 40; i++ {
		must(pt.Insert(mem.VAddr(0x10_0000_0000+i*2*mem.MB+0x5000), e4(5000+i), l))
		must(pt.Insert(mem.VAddr(0x200_0000_0000+i*mem.GB), e4(6000+i), l))
	}
	// 2M leaves, and a PD holding a 2M leaf in one slot and a PT in
	// the next.
	for i := uint64(0); i < 48; i++ {
		must(pt.Insert(mem.VAddr(0x40_0000_0000+i*2*mem.MB), Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l))
	}
	mixed := mem.VAddr(0x50_0000_0000)
	must(pt.Insert(mixed, Entry{Frame: 0x4000_0000, Size: mem.Page2M, Present: true}, l))
	must(pt.Insert(mixed+2*mem.MB+0x3000, e4(7000), l))
	// 1G leaves.
	for i := uint64(0); i < 3; i++ {
		must(pt.Insert(mem.VAddr(0x300_0000_0000+i*mem.GB), Entry{Frame: mem.PAddr(i+1) * mem.GB, Size: mem.Page1G, Present: true}, l))
	}
	// An overwriting insert, updates, and an update of an unmapped page.
	must(pt.Insert(dense+5*4*mem.KB, e4(9999), l))
	l.put('U', boolBit(pt.Update(dense+7*4*mem.KB, Entry{Frame: 0x1234_5000, Size: mem.Page4K, Present: true, Dirty: true}, l)))
	l.put('U', boolBit(pt.Update(mixed+0x1000, Entry{Frame: 0x4020_0000, Size: mem.Page2M, Present: true, Dirty: true}, l)))
	l.put('U', boolBit(pt.Update(0x66_0000_0000, e4(1), l)))
	// Removes, including a 2M leaf, a 1G leaf and an unmapped page.
	for i := uint64(0); i < 1200; i += 9 {
		_, ok := pt.Remove(dense+mem.VAddr(i*4*mem.KB), l)
		l.put('D', boolBit(ok))
	}
	for _, va := range []mem.VAddr{0x40_0000_0000 + 6*mem.MB, 0x300_0000_0000 + mem.GB, 0x66_0000_0000} {
		_, ok := pt.Remove(va, l)
		l.put('D', boolBit(ok))
	}
	// A 4K page where a 2M leaf was removed.
	must(pt.Insert(0x40_0000_0000+6*mem.MB+0x2000, e4(8000), l))
	// Walks: mapped, removed, and unmapped at every level.
	for i := uint64(0); i < 1210; i += 7 {
		check(dense + mem.VAddr(i*4*mem.KB))
	}
	for _, va := range []mem.VAddr{
		0x7f12_3450_0000 - 4*mem.KB,   // PT exists, entry below the run empty
		0x7f12_4000_0000,              // PDPT exists, PDPT slot empty
		0x7f80_0000_0000,              // PML4 slot empty
		0x10_0000_0000 + 0x6000,       // PT exists, entry empty
		0x10_0000_0000 + 100*2*mem.MB, // PD exists, PD slot empty
		0x40_0000_0000 + 6*mem.MB,     // removed 2M leaf, now a PT
		0x40_0000_0000 + 5*mem.MB,     // inside a 2M leaf
		mixed + 0x1fff,                // 2M leaf of the mixed PD
		mixed + 2*mem.MB + 0x3000,     // 4K page of the mixed PD
		mixed + 4*mem.MB,              // empty slot of the mixed PD
		0x300_0000_0000 + 0x12345,     // inside a 1G leaf
		0x300_0000_0000 + mem.GB,      // removed 1G leaf
		0x200_0000_0000 + 3*mem.GB,    // sparse page
	} {
		check(va)
	}
	l.put('M', pt.MappedPages())
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
	pt.Recycle(pool)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// htTraffic drives a small HT from pool into long chains of overflow
// groups, then removes, re-inserts into the freed slots and walks, and
// finally recycles the table into pool.
func htTraffic(l *trafficLog, pool *recycle.Pool) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	pt := NewHTWith(alloc, 64*mem.KB, pool)
	rng := xrand.New(0x47)
	const n = 12000
	vas := make([]mem.VAddr, n)
	for i := range vas {
		vas[i] = mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		pt.Insert(vas[i], Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, l)
		if i%89 == 0 {
			l.walk(pt, vas[i])
		}
	}
	for i := 0; i < n; i += 3 {
		pt.Remove(vas[i], l)
	}
	for i := 0; i < n; i += 6 {
		pt.Insert(vas[i]^0x4000_0000, Entry{Frame: mem.PAddr(i+7) << 12, Size: mem.Page4K, Present: true}, l)
		pt.Update(vas[i+1], Entry{Frame: mem.PAddr(i+9) << 12, Size: mem.Page4K, Present: true, Dirty: true}, l)
	}
	for i := 0; i < n; i += 7 {
		l.walk(pt, vas[i])
	}
	for i := uint64(0); i < 32; i++ {
		va := mem.VAddr(0x40_0000_0000 + i*2*mem.MB)
		pt.Insert(va, Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l)
		l.walk(pt, va+0x5000)
	}
	l.put('M', pt.MappedPages())
	l.put('O', pt.sub[0].OverflowNodes)
	l.put('H', pt.sub[0].ChainHops)
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
	pt.Recycle(pool)
}

// hdcTraffic drives a small HDC from pool: dense runs that fill
// clusters, scattered pages that each open a cluster and lengthen the
// probe sequences, updates, removes and re-inserts into emptied
// clusters, 2M pages, and walks and lookups of mapped, removed and
// unmapped pages. It then recycles the table into pool.
func hdcTraffic(l *trafficLog, pool *recycle.Pool) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	// 56 KiB of 4K buckets (896 slots) and 8 KiB of 2M buckets (128).
	pt := NewHDCWith(alloc, 64*mem.KB, pool)
	rng := xrand.New(0x4DC)
	e4 := func(i uint64) Entry { return Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true} }
	check := func(va mem.VAddr) {
		l.walk(pt, va)
		e, ok := pt.Lookup(va)
		if ok {
			l.put('Q', uint64(e.Frame))
		} else {
			l.put('q', 0)
		}
	}
	dense := mem.VAddr(0x7f12_3450_0000)
	for i := uint64(0); i < 600; i++ {
		must(pt.Insert(dense+mem.VAddr(i*4*mem.KB), e4(i), l))
	}
	// 600 scattered pages: with the 75 dense clusters they fill most of
	// the 896 slots, so late inserts probe far from home.
	vas := make([]mem.VAddr, 600)
	for i := range vas {
		vas[i] = mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		must(pt.Insert(vas[i], e4(1000+uint64(i)), l))
		if i%37 == 0 {
			check(vas[i])
			check(vas[i] ^ 0x1000)
		}
	}
	for i := 0; i < len(vas); i += 5 {
		_, ok := pt.Remove(vas[i], l)
		l.put('D', boolBit(ok))
	}
	for i := uint64(0); i < 600; i += 11 {
		_, ok := pt.Remove(dense+mem.VAddr(i*4*mem.KB), l)
		l.put('D', boolBit(ok))
	}
	for i := 0; i < len(vas); i += 10 {
		must(pt.Insert(vas[i], e4(5000+uint64(i)), l))
		l.put('U', boolBit(pt.Update(vas[i+1], Entry{Frame: mem.PAddr(i+9) << 12, Size: mem.Page4K, Present: true, Dirty: true}, l)))
	}
	l.put('U', boolBit(pt.Update(0x66_0000_0000, e4(1), l)))
	for i := uint64(0); i < 24; i++ {
		va := mem.VAddr(0x40_0000_0000 + i*2*mem.MB)
		must(pt.Insert(va, Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l))
		check(va + 0x5000)
		if i%4 == 0 {
			_, ok := pt.Remove(va, l)
			l.put('D', boolBit(ok))
			check(va)
		}
	}
	for i := 0; i < len(vas); i += 3 {
		check(vas[i])
	}
	for i := uint64(0); i < 610; i += 7 {
		check(dense + mem.VAddr(i*4*mem.KB))
	}
	check(0x66_0000_0000)
	l.put('M', pt.MappedPages())
	l.put('B', pt.sub[0].Probes)
	l.put('L', pt.sub[0].Lookups)
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
	pt.Recycle(pool)
}

// TestPageTableKernelTrafficPinned pins the simulated memory traffic of
// the page tables: the kernel loads, stores and ALU charges of their
// updates and the step addresses of their hardware walks. A change to
// how the host stores the tables (lazy or paged slot arrays, slot
// layout, node arenas, pooled node arrays) must leave every digest
// unchanged. The ech-orphan, radix, HT and HDC sequences run twice on
// one pool, the second time on the storage the first recycled, and both
// runs must match the pin.
func TestPageTableKernelTrafficPinned(t *testing.T) {
	unpooled := func(run func(*trafficLog)) func(*trafficLog, *recycle.Pool) {
		return func(l *trafficLog, _ *recycle.Pool) { run(l) }
	}
	for _, tc := range []struct {
		name   string
		run    func(*trafficLog, *recycle.Pool)
		passes int
		want   string
	}{
		{"ech", unpooled(echTraffic), 1, "b57ba63b928bdd10b6c7a648af98ecef9425c73757e87e1499c0766e495854c3"},
		{"ech-sparse", unpooled(echSparseTraffic), 1, "2554b577a8146fb77559f5ba28bd53e8a95e4a3aac464ef8673638cdfb9eeabf"},
		{"ech-orphan", echOrphanTraffic, 2, "1301597bf26803fa6c7bed8661f0293d911927df745c475fba5e8c8221b7a09e"},
		{"ht", htTraffic, 2, "003e28fccb4aa87909de81b26771c3392340fe40464d212b49223af2779ed3a8"},
		{"hdc", hdcTraffic, 2, "ef413ad95b92f6a2a3cce6d1b95ab4069ae37f3ecdeaaa09e883b4f9fbac139b"},
		{"radix", radixTraffic, 2, "9dde95777e0b67c8a037bef361b7fe67915dd112e098eb08a984c0dade1c13ce"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := recycle.New()
			for pass := 1; pass <= tc.passes; pass++ {
				l := &trafficLog{h: sha256.New()}
				tc.run(l, pool)
				if got := hex.EncodeToString(l.h.Sum(nil)); got != tc.want {
					t.Errorf("pass %d: kernel traffic digest = %s, want %s", pass, got, tc.want)
				}
			}
		})
	}
}
