package pagetable

import (
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
	pt := NewECH(&bumpAlloc{})
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
