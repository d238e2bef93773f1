package pagetable

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/xrand"
)

// bumpAlloc hands out simulated frames from a bump pointer and keeps no
// host state, so a test can count a table's own host bytes.
type bumpAlloc struct{ next mem.PAddr }

func (b *bumpAlloc) AllocFrame() (mem.PAddr, bool) { return b.AllocContig(1, 1) }
func (b *bumpAlloc) FreeFrame(mem.PAddr)           {}
func (b *bumpAlloc) AllocContig(pages, _ uint64) (mem.PAddr, bool) {
	pa := b.next + 4*mem.KB
	b.next += mem.PAddr(pages * 4 * mem.KB)
	return pa, true
}

// node returns the radix node on the path to va at the given level
// (0 = PML4), or nil if the path ends above it.
func (r *Radix) node(va mem.VAddr, level int) *radixNode {
	idx := indices(va)
	n := r.root
	for l := 0; l < level && n != nil; l++ {
		n = n.child(idx[l])
	}
	return n
}

func TestRadixNodesCarryOnlyUsedArrays(t *testing.T) {
	k := instrument.NopMem{}
	pt := NewRadix(&bumpAlloc{})
	pd := mem.VAddr(0x40_0000_0000)
	must(pt.Insert(pd, Entry{Frame: 0x4000_0000, Size: mem.Page2M, Present: true}, k))
	must(pt.Insert(pd+2*mem.MB+0x3000, Entry{Frame: 0x5000, Size: mem.Page4K, Present: true}, k))
	must(pt.Insert(0x80_0000_0000, Entry{Frame: mem.GB, Size: mem.Page1G, Present: true}, k))

	// A PD holding a 2M leaf in slot 0 and a PT in slot 1.
	n := pt.node(pd, 2)
	if n == nil || n.entries == nil || n.children == nil {
		t.Fatalf("PD node %+v: want both a leaf and a children array", n)
	}
	if n.leaf(0) == nil || n.child(0) != nil || n.child(1) == nil || n.leaf(1) != nil {
		t.Errorf("PD slots: leaf0 %v child0 %v child1 %v leaf1 %v; want the 2M leaf in slot 0 and the PT in slot 1",
			n.leaf(0), n.child(0), n.child(1), n.leaf(1))
	}
	if pt := n.child(1); pt.children != nil || pt.entries == nil {
		t.Errorf("PT node carries children %v, entries %v; want only entries", pt.children != nil, pt.entries != nil)
	}
	// The PML4 never gets a leaf array; a PDPT gets one only for 1G
	// leaves.
	if pt.root.entries != nil {
		t.Error("PML4 node has a leaf array")
	}
	if p := pt.node(pd, 1); p.entries != nil {
		t.Error("PDPT without 1G leaves has a leaf array")
	}
	if p := pt.node(0x80_0000_0000, 1); p.entries == nil || p.children != nil {
		t.Errorf("PDPT with only a 1G leaf: entries %v, children %v", p.entries != nil, p.children != nil)
	}
	for _, va := range []mem.VAddr{pd + 0x1234, pd + 2*mem.MB + 0x3000, 0x80_0000_0000 + 0x5678} {
		if _, ok := pt.Lookup(va); !ok {
			t.Errorf("Lookup(%#x) missed", va)
		}
	}
}

// radixBuild maps n pages of a mix of sizes from seed.
func radixBuild(pt *Radix, seed uint64, n int) []mem.VAddr {
	k := instrument.NopMem{}
	rng := xrand.New(seed)
	var vas []mem.VAddr
	for i := 0; i < n; i++ {
		va := mem.VAddr(rng.Uint64n(1<<40)) &^ 0xfff
		e := Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}
		switch i % 16 {
		case 0:
			va &^= 2*mem.MB - 1
			e.Size = mem.Page2M
		case 1:
			va &^= mem.GB - 1
			e.Size = mem.Page1G
		}
		must(pt.Insert(va, e, k))
		vas = append(vas, va)
	}
	return vas
}

// TestRadixRecycledArraysWalkLikeFresh builds a table from the arrays a
// different table recycled and requires every walk to match a table
// built fresh: recycled arrays must come back scrubbed.
func TestRadixRecycledArraysWalkLikeFresh(t *testing.T) {
	pool := recycle.New()
	old := NewRadixWith(&bumpAlloc{}, pool)
	radixBuild(old, 1, 600)
	reused := &old.leaves.chunks[len(old.leaves.chunks)-1][:1][0]
	old.Recycle(pool)

	fresh := NewRadix(&bumpAlloc{})
	pooled := NewRadixWith(&bumpAlloc{}, pool)
	vas := radixBuild(fresh, 2, 500)
	radixBuild(pooled, 2, 500)
	if &pooled.leaves.chunks[0][:1][0] != reused {
		t.Fatal("the pooled table did not take the recycled leaf arrays")
	}
	probe := append(vas, radixBuild(NewRadix(&bumpAlloc{}), 1, 600)...)
	for _, va := range probe {
		for _, off := range []mem.VAddr{0, 0x1000, 0x20_0000} {
			if w, f := pooled.Walk(va+off), fresh.Walk(va+off); w != f {
				t.Fatalf("Walk(%#x): pooled %+v, fresh %+v", va+off, w, f)
			}
		}
	}
	if pooled.MappedPages() != fresh.MappedPages() {
		t.Errorf("MappedPages: pooled %d, fresh %d", pooled.MappedPages(), fresh.MappedPages())
	}
}

// pageCount counts the host slot pages of an ECH generation.
func (a *cuckooArray) pageCount() int {
	n := 0
	for _, p := range a.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestECHAbsentPagesMissWithoutMaking requires lookups, walks and
// removes that land on absent slot pages to miss and make no page.
func TestECHAbsentPagesMissWithoutMaking(t *testing.T) {
	pt := NewECHWith(&bumpAlloc{}, nil)
	k := instrument.NopMem{}
	va := mem.VAddr(0x7f00_1234_5000)
	must(pt.Insert(va, Entry{Frame: 0x9000, Size: mem.Page4K, Present: true}, k))
	t4, t2 := pt.tables[0], pt.tables[1]
	if got := t4.cur.pageCount(); got != 1 {
		t.Fatalf("one insert made %d pages, want 1", got)
	}
	rng := xrand.New(7)
	for i := 0; i < 2000; i++ {
		miss := mem.VAddr(rng.Uint64n(1<<40)) &^ 0xfff
		if miss == va {
			continue
		}
		if _, ok := pt.Lookup(miss); ok {
			t.Fatalf("Lookup(%#x) hit an unmapped page", miss)
		}
		if w := pt.Walk(miss); w.Found || w.NSteps != echWays {
			t.Fatalf("Walk(%#x): found %v in %d steps, want a miss in %d", miss, w.Found, w.NSteps, echWays)
		}
		if _, ok := pt.Remove(miss, k); ok {
			t.Fatalf("Remove(%#x) removed an unmapped page", miss)
		}
	}
	if got := t4.cur.pageCount(); got != 1 {
		t.Errorf("misses made pages: %d, want 1", got)
	}
	if t2.cur.pages != nil {
		t.Error("misses made the untouched 2M table's page directory")
	}
	if e, ok := pt.Remove(va, k); !ok || e.Frame != 0x9000 {
		t.Errorf("Remove(mapped) = %+v, %v", e, ok)
	}
}

// echChurn maps and unmaps a mix of 4K and 2M pages from seed, resizes
// both tables, and keeps churning through the gradual migration, which
// completes in the 2M table but not in the 4K one, so emptied records
// are taken again. It returns the 4K pages it used.
func echChurn(pt *ECH, l *trafficLog, seed uint64) []mem.VAddr {
	rng := xrand.New(seed)
	e4 := func(i int) Entry { return Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true} }
	vas := make([]mem.VAddr, 3000)
	for i := range vas {
		vas[i] = mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		must(pt.Insert(vas[i], e4(i), l))
		if i%7 == 0 {
			pt.Remove(vas[i/2], l)
		}
	}
	for i := uint64(0); i < 40; i++ {
		must(pt.Insert(mem.VAddr(0x40_0000_0000+i*2*mem.MB), Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l))
	}
	for _, t := range pt.tables {
		t.resize(l)
	}
	for i := 0; i < 120; i++ {
		va := mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		must(pt.Insert(va, e4(5000+i), l))
		must(pt.Insert(mem.VAddr(0x80_0000_0000+uint64(i)*2*mem.MB), Entry{Frame: mem.PAddr(0x1_0000_0000 + uint64(i)*2*mem.MB), Size: mem.Page2M, Present: true}, l))
		pt.Update(vas[(i*5)%len(vas)], Entry{Frame: mem.PAddr(i+7) << 12, Size: mem.Page4K, Present: true, Dirty: true}, l)
		if i%3 == 0 {
			pt.Remove(vas[(i*11)%len(vas)], l)
		}
	}
	for i := 0; i < len(vas); i += 9 {
		pt.Remove(vas[i], l)
	}
	return vas
}

// checkStore requires a generation's record store to hold exactly its
// occupied slots and its free list, and every record past those to be
// zero.
func (a *cuckooArray) checkStore(t *testing.T, name string) {
	t.Helper()
	seen := make(map[uint32]bool)
	for _, p := range a.pages {
		if p == nil {
			continue
		}
		for _, r := range p {
			if r == 0 {
				continue
			}
			if r > a.nrecs || seen[r] || a.rec(r).key == 0 {
				t.Fatalf("%s: slot holds record %d (handed out %d, seen %v)", name, r, a.nrecs, seen[r])
			}
			seen[r] = true
		}
	}
	if uint64(len(seen)) != a.used {
		t.Fatalf("%s: %d occupied slots, used %d", name, len(seen), a.used)
	}
	free := 0
	for r := a.free; r != 0; r = uint32(a.rec(r).key) {
		if r > a.nrecs || seen[r] || a.rec(r).e != (Entry{}) {
			t.Fatalf("%s: free list holds record %d (handed out %d)", name, r, a.nrecs)
		}
		seen[r] = true
		free++
	}
	if len(seen) != int(a.nrecs) {
		t.Fatalf("%s: %d occupied and %d free records, %d handed out", name, int(a.used), free, a.nrecs)
	}
	for r := a.nrecs + 1; r <= uint32(len(a.recs))*echRecChunk; r++ {
		if s := *a.rec(r); s != (cuckooSlot{}) {
			t.Fatalf("%s: stale record %+v past the records handed out", name, s)
		}
	}
}

// TestECHReuseMatchesFresh runs one ECH sequence on a fresh table and
// on a table built from a pool that already holds another table's slot
// pages, and requires the same kernel traffic, lookups, walks and
// counters, and slot pages and records holding nothing stale.
func TestECHReuseMatchesFresh(t *testing.T) {
	pool := recycle.New()
	old := NewECHWith(&bumpAlloc{}, pool)
	echChurn(old, &trafficLog{h: sha256.New()}, 1)
	reused := old.tables[0].old.page(0, 0)
	old.Recycle(pool)

	fresh, pooled := NewECHWith(&bumpAlloc{}, nil), NewECHWith(&bumpAlloc{}, pool)
	lf, lp := &trafficLog{h: sha256.New()}, &trafficLog{h: sha256.New()}
	vas := echChurn(fresh, lf, 2)
	echChurn(pooled, lp, 2)
	if !bytes.Equal(lf.h.Sum(nil), lp.h.Sum(nil)) {
		t.Fatal("kernel traffic of the pooled table differs from the fresh one")
	}
	took := false
	for _, tb := range pooled.tables {
		for _, a := range [2]*cuckooArray{tb.cur, tb.old} {
			for i := 0; a != nil && i < len(a.pages); i++ {
				took = took || a.pages[i] == reused
			}
		}
	}
	if reused == nil || !took {
		t.Fatal("the pooled table did not take the recycled slot pages")
	}
	for _, va := range vas {
		for _, off := range []mem.VAddr{0, 0x1000, 0x40_0000_0000} {
			if w, f := pooled.Walk(va+off), fresh.Walk(va+off); w != f {
				t.Fatalf("Walk(%#x): pooled %+v, fresh %+v", va+off, w, f)
			}
			pe, pok := pooled.Lookup(va + off)
			fe, fok := fresh.Lookup(va + off)
			if pe != fe || pok != fok {
				t.Fatalf("Lookup(%#x): pooled %+v %v, fresh %+v %v", va+off, pe, pok, fe, fok)
			}
		}
	}
	if pooled.MappedPages() != fresh.MappedPages() {
		t.Errorf("MappedPages: pooled %d, fresh %d", pooled.MappedPages(), fresh.MappedPages())
	}
	for i, tb := range pooled.tables {
		ft := fresh.tables[i]
		if tb.Kicks != ft.Kicks || tb.Resizes != ft.Resizes || tb.Migrations != ft.Migrations {
			t.Errorf("table %d: pooled kicks/resizes/migrations %d/%d/%d, fresh %d/%d/%d",
				i, tb.Kicks, tb.Resizes, tb.Migrations, ft.Kicks, ft.Resizes, ft.Migrations)
		}
		if tb.Resizes == 0 || tb.Migrations == 0 {
			t.Errorf("table %d: %d resizes, %d migrations; want a migration", i, tb.Resizes, tb.Migrations)
		}
		for gen, a := range [2]*cuckooArray{tb.cur, tb.old} {
			if a != nil {
				a.checkStore(t, fmt.Sprintf("pooled table %d, generation %d", i, gen))
			}
		}
	}
	if pooled.tables[0].old == nil || pooled.tables[1].old != nil {
		t.Error("want the 4K table still migrating and the 2M table's migration complete")
	}
}
