package rangetable

import (
	"testing"

	"repro/internal/instrument"
	"repro/internal/mem"
)

func TestTableFindAndTranslate(t *testing.T) {
	tb := New(0x100000)
	k := instrument.NopMem{}
	tb.Insert(Range{VStart: 0x10000, VEnd: 0x30000, Base: 0x500000}, k)
	tb.Insert(Range{VStart: 0x40000, VEnd: 0x50000, Base: 0x900000}, k)

	var steps []mem.PAddr
	r, ok := tb.Find(0x20000, &steps)
	if !ok || r.Base != 0x500000 {
		t.Fatalf("find = %+v %v", r, ok)
	}
	if len(steps) == 0 {
		t.Fatal("range walk reported no metadata accesses")
	}
	if pa := r.Translate(0x20080); pa != 0x500000+(0x20080-0x10000) {
		t.Fatalf("translate = %x", pa)
	}
	if _, ok := tb.Find(0x38000, nil); ok {
		t.Fatal("found a range in a hole")
	}
}

func TestTableRemoveOverlap(t *testing.T) {
	tb := New(0x100000)
	k := instrument.NopMem{}
	tb.Insert(Range{VStart: 0x1000, VEnd: 0x2000, Base: 0xA000}, k)
	tb.Insert(Range{VStart: 0x3000, VEnd: 0x4000, Base: 0xB000}, k)
	if n := tb.Remove(0x1800, 0x1900, k); n != 1 {
		t.Fatalf("removed %d", n)
	}
	if len(tb.ranges) != 1 || tb.ranges[0].VStart != 0x3000 {
		t.Fatalf("ranges after remove = %+v", tb.ranges)
	}
}

func TestTableSortedInsert(t *testing.T) {
	tb := New(0x100000)
	k := instrument.NopMem{}
	for _, start := range []mem.VAddr{0x9000, 0x1000, 0x5000} {
		tb.Insert(Range{VStart: start, VEnd: start + 0x1000}, k)
	}
	rs := tb.ranges
	for i := 1; i < len(rs); i++ {
		if rs[i-1].VStart >= rs[i].VStart {
			t.Fatal("ranges not sorted")
		}
	}
}

// TestManySmallVMAs is the Fig. 18 regime: one big VMA plus many small
// ones, deep enough for a three-level walk.
func TestManySmallVMAs(t *testing.T) {
	tb := New(0x100000)
	k := instrument.NopMem{}
	tb.Insert(Range{VStart: 0x1_0000_0000, VEnd: 0x11_0000_0000, Base: 1 << 30}, k)
	for i := 0; i < 147; i++ {
		base := mem.VAddr(0x20_0000_0000 + i*0x10000)
		tb.Insert(Range{VStart: base, VEnd: base + 0x1000}, k)
	}
	if len(tb.ranges) != 148 {
		t.Fatalf("count = %d", len(tb.ranges))
	}
	var steps []mem.PAddr
	if _, ok := tb.Find(0x2_0000_0000, &steps); !ok {
		t.Fatal("big VMA lookup failed")
	}
	if len(steps) != 3 {
		t.Fatalf("walk of 148 ranges touched %d nodes, want 3", len(steps))
	}
}

// TestMidgardFindChargesWalk runs the frontend lookup the way Midgard
// uses the table: Base is the VMA's Midgard address (MA).
func TestMidgardFindChargesWalk(t *testing.T) {
	tb := New(0x100000)
	k := instrument.NopMem{}
	tb.Insert(Range{VStart: 0x10000, VEnd: 0x20000, Base: 1 << 30}, k)
	var steps []mem.PAddr
	v, ok := tb.Find(0x15000, &steps)
	if !ok {
		t.Fatal("find missed")
	}
	if len(steps) == 0 {
		t.Fatal("frontend walk accessed no tree nodes")
	}
	if ma := v.Translate(0x15000); ma != v.Base+0x5000 {
		t.Fatalf("translate = %x", ma)
	}
	if _, ok := tb.Find(0x30000, nil); ok {
		t.Fatal("found VMA in a hole")
	}
}

// TestMidgardRemoveWholeVMA unmaps one of two VMAs exactly, as munmap of
// a whole Midgard VMA does.
func TestMidgardRemoveWholeVMA(t *testing.T) {
	tb := New(0x100000)
	k := instrument.NopMem{}
	tb.Insert(Range{VStart: 0x10000, VEnd: 0x20000, Base: 1 << 30}, k)
	tb.Insert(Range{VStart: 0x30000, VEnd: 0x40000, Base: 1<<30 + 4<<20}, k)
	if n := tb.Remove(0x10000, 0x20000, k); n != 1 {
		t.Fatalf("removed %d", n)
	}
	if len(tb.ranges) != 1 || tb.ranges[0].VStart != 0x30000 {
		t.Fatalf("ranges after remove = %+v", tb.ranges)
	}
}
