package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestTLBHitMiss(t *testing.T) {
	tl := New("t", 16, 4, 1, mem.Page4K)
	va := mem.VAddr(0x1000)
	if _, ok := tl.Lookup(va, 1); ok {
		t.Fatal("hit on empty TLB")
	}
	tl.Insert(Entry{VPN: mem.Page4K.VPN(va), Size: mem.Page4K, Frame: 0x9000, ASID: 1})
	e, ok := tl.Lookup(va, 1)
	if !ok || e.Frame != 0x9000 {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	// Different ASID must miss (no global pages here).
	if _, ok := tl.Lookup(va, 2); ok {
		t.Fatal("cross-ASID hit")
	}
	if tl.Stats().Hits != 1 || tl.Stats().Misses != 2 {
		t.Fatalf("stats = %+v", tl.Stats())
	}
}

func TestTLBMultiPageSize(t *testing.T) {
	tl := New("t", 32, 4, 12, mem.Page4K, mem.Page2M)
	base := mem.VAddr(0x40000000)
	tl.Insert(Entry{VPN: mem.Page2M.VPN(base), Size: mem.Page2M, Frame: 0x8000000, ASID: 1})
	e, ok := tl.Lookup(base+0x123456, 1)
	if !ok || e.Size != mem.Page2M {
		t.Fatalf("2M lookup inside page failed: %+v %v", e, ok)
	}
	// A 1G insert must be rejected (unsupported size).
	tl.Insert(Entry{VPN: 1, Size: mem.Page1G, Frame: 0, ASID: 1})
	if tl.Occupancy() != 1 {
		t.Fatalf("unsupported size was inserted: occ=%d", tl.Occupancy())
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	// Direct-mapped-by-set with 2 ways: fill a set with 3 entries
	// mapping to it; the least recently used must be evicted.
	tl := New("t", 8, 2, 1, mem.Page4K) // 4 sets
	mk := func(i uint64) Entry {
		return Entry{VPN: i * 4, Size: mem.Page4K, ASID: 1} // all map to set 0
	}
	tl.Insert(mk(1))
	tl.Insert(mk(2))
	tl.Lookup(mem.VAddr(1*4)<<12, 1) // touch 1 → 2 becomes LRU
	tl.Insert(mk(3))                 // evicts 2
	if _, ok := tl.Lookup(mem.VAddr(2*4)<<12, 1); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := tl.Lookup(mem.VAddr(1*4)<<12, 1); !ok {
		t.Fatal("MRU entry evicted")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tl := New("t", 16, 4, 1, mem.Page4K)
	va := mem.VAddr(0x2000)
	tl.Insert(Entry{VPN: mem.Page4K.VPN(va), Size: mem.Page4K, ASID: 3})
	tl.InvalidateVA(va, 3)
	if _, ok := tl.Lookup(va, 3); ok {
		t.Fatal("entry survived shootdown")
	}
}

// TestTLBInvalidateRange shoots down a 4K range: an entry of any size
// overlapping it goes, entries beside it or of another ASID stay.
func TestTLBInvalidateRange(t *testing.T) {
	tl := New("t", 32, 4, 1, mem.Page4K, mem.Page2M)
	huge := mem.VAddr(0x4000_0000)
	in := huge + 0x5000
	tl.Insert(Entry{VPN: mem.Page2M.VPN(huge), Size: mem.Page2M, ASID: 1})
	tl.Insert(Entry{VPN: mem.Page4K.VPN(in), Size: mem.Page4K, ASID: 1})
	tl.Insert(Entry{VPN: mem.Page4K.VPN(in + 0x1000), Size: mem.Page4K, ASID: 1})
	tl.Insert(Entry{VPN: mem.Page4K.VPN(in), Size: mem.Page4K, ASID: 2})
	tl.InvalidateRange(in, mem.Page4K.Bytes(), 1)
	if tl.OccupancyASID(1) != 1 {
		t.Fatalf("ASID 1 keeps %d entries, want only the neighbouring 4K page", tl.OccupancyASID(1))
	}
	if e, ok := tl.Lookup(in+0x1000, 1); !ok || e.Size != mem.Page4K {
		t.Fatalf("neighbouring page lookup = %+v %v", e, ok)
	}
	if _, ok := tl.Lookup(in, 2); !ok {
		t.Fatal("range shootdown dropped another ASID's entry")
	}
}

func TestPWC(t *testing.T) {
	p := NewPWC(1, 8, 2, 2)
	va := mem.VAddr(0x7f12_3456_7000)
	if _, ok := p.Lookup(va); ok {
		t.Fatal("hit on empty PWC")
	}
	p.Insert(va, 0xAAA000)
	node, ok := p.Lookup(va)
	if !ok || node != 0xAAA000 {
		t.Fatalf("pwc lookup = %x %v", node, ok)
	}
	// Depth-1 tags cover 512GB regions: a nearby address shares the tag.
	if _, ok := p.Lookup(va + 0x1000_0000); !ok {
		t.Fatal("same-region lookup missed")
	}
}

func TestRangeTLB(t *testing.T) {
	r := NewRangeTLB("rlb", 4, 9)
	e := RangeEntry{VStart: 0x10000, VEnd: 0x50000, PBase: 0x900000, ASID: 1}
	r.Insert(e)
	got, ok := r.Lookup(0x23456, 1)
	if !ok {
		t.Fatal("range lookup missed")
	}
	if pa := got.Translate(0x23456); pa != 0x900000+(0x23456-0x10000) {
		t.Fatalf("translate = %x", pa)
	}
	if _, ok := r.Lookup(0x50000, 1); ok {
		t.Fatal("end of range is exclusive")
	}
	r.InvalidateOverlap(0x20000, 0x21000, 1)
	if _, ok := r.Lookup(0x23456, 1); ok {
		t.Fatal("overlap invalidation failed")
	}
}

func TestRangeTLBReplacement(t *testing.T) {
	r := NewRangeTLB("rlb", 2, 9)
	for i := 0; i < 3; i++ {
		base := mem.VAddr(i) * 0x100000
		r.Insert(RangeEntry{VStart: base, VEnd: base + 0x1000, ASID: 1})
	}
	// Entry 0 is the oldest; must be gone.
	if _, ok := r.Lookup(0x0, 1); ok {
		t.Fatal("LRU range not evicted")
	}
	if _, ok := r.Lookup(0x200000, 1); !ok {
		t.Fatal("newest range missing")
	}
}

func TestMetaCache(t *testing.T) {
	c := NewMetaCache("tar", 4, 2)
	c.Insert(42, 7)
	v, ok := c.Lookup(42)
	if !ok || v != 7 {
		t.Fatalf("lookup = %d %v", v, ok)
	}
	c.Invalidate(42)
	if _, ok := c.Lookup(42); ok {
		t.Fatal("invalidate failed")
	}
}

// TestQuickTLBNeverWrongTranslation: whatever the insert sequence, a hit
// must return exactly the last entry inserted for that (VPN, size, ASID).
func TestQuickTLBNeverWrongTranslation(t *testing.T) {
	f := func(pages []uint8) bool {
		tl := New("q", 16, 4, 1, mem.Page4K)
		last := map[uint64]mem.PAddr{}
		for i, p := range pages {
			vpn := uint64(p % 64)
			frame := mem.PAddr(i+1) << 12
			tl.Insert(Entry{VPN: vpn, Size: mem.Page4K, Frame: frame, ASID: 1})
			last[vpn] = frame
		}
		for vpn, want := range last {
			if e, ok := tl.Lookup(mem.VAddr(vpn<<12), 1); ok && e.Frame != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
