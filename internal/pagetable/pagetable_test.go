package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/xrand"
)

func newAlloc(t testing.TB) FrameAllocator {
	t.Helper()
	return phys.NewSlab(phys.New(512 * mem.MB))
}

func allDesigns(t testing.TB) map[string]PageTable {
	alloc := newAlloc(t)
	return map[string]PageTable{
		"radix": NewRadix(alloc),
		"ech":   NewECHWith(alloc, nil),
		"hdc":   NewHDCWith(alloc, 16*mem.MB, nil),
		"ht":    NewHTWith(alloc, 16*mem.MB, nil),
	}
}

func TestInsertLookupRemoveAllDesigns(t *testing.T) {
	for name, pt := range allDesigns(t) {
		t.Run(name, func(t *testing.T) {
			k := instrument.NopMem{}
			va := mem.VAddr(0x7f00_1234_5000)
			e := Entry{Frame: 0xABC000, Size: mem.Page4K, Present: true, Writable: true}
			if err := pt.Insert(va, e, k); err != nil {
				t.Fatalf("insert: %v", err)
			}
			got, ok := pt.Lookup(va)
			if !ok || got.Frame != e.Frame {
				t.Fatalf("lookup = %+v, %v", got, ok)
			}
			// Lookup via a different offset in the same page.
			if _, ok := pt.Lookup(va + 0xfff); !ok {
				t.Fatal("same-page lookup failed")
			}
			if pt.MappedPages() != 1 {
				t.Fatalf("mapped pages = %d", pt.MappedPages())
			}
			old, ok := pt.Remove(va, k)
			if !ok || old.Frame != e.Frame {
				t.Fatalf("remove = %+v, %v", old, ok)
			}
			if _, ok := pt.Lookup(va); ok {
				t.Fatal("lookup after remove succeeded")
			}
		})
	}
}

func TestWalkFindsInserted(t *testing.T) {
	for name, pt := range allDesigns(t) {
		t.Run(name, func(t *testing.T) {
			k := instrument.NopMem{}
			va := mem.VAddr(0x5555_0000)
			pt.Insert(va, Entry{Frame: 0x1000_0000, Size: mem.Page4K, Present: true}, k)
			w := pt.Walk(va)
			if !w.Found || !w.Entry.Present {
				t.Fatalf("walk did not find entry: %+v", w)
			}
			if w.NSteps == 0 {
				t.Fatal("walk performed no memory accesses")
			}
			if w.Entry.Frame != 0x1000_0000 {
				t.Fatalf("walk frame = %x", w.Entry.Frame)
			}
		})
	}
}

func TestWalkMissReportsSteps(t *testing.T) {
	for name, pt := range allDesigns(t) {
		t.Run(name, func(t *testing.T) {
			w := pt.Walk(0xdead_beef_000)
			if w.Found {
				t.Fatal("walk of empty table found an entry")
			}
			if w.NSteps == 0 {
				t.Fatal("fault-path walk must still access memory")
			}
		})
	}
}

func TestHugePages(t *testing.T) {
	for name, pt := range allDesigns(t) {
		t.Run(name, func(t *testing.T) {
			k := instrument.NopMem{}
			base := mem.VAddr(0x4000_0000) // 2MB aligned
			pt.Insert(base, Entry{Frame: 0x8000_0000, Size: mem.Page2M, Present: true}, k)
			// Any address inside the 2MB page resolves.
			e, ok := pt.Lookup(base + 0x12345)
			if !ok || e.Size != mem.Page2M {
				t.Fatalf("huge lookup = %+v, %v", e, ok)
			}
		})
	}
}

func TestRadix1G(t *testing.T) {
	pt := NewRadix(newAlloc(t))
	k := instrument.NopMem{}
	base := mem.VAddr(0x40_0000_0000)
	if err := pt.Insert(base, Entry{Frame: 0x1_0000_0000, Size: mem.Page1G, Present: true}, k); err != nil {
		t.Fatal(err)
	}
	e, ok := pt.Lookup(base + 0x3fff_ffff)
	if !ok || e.Size != mem.Page1G {
		t.Fatalf("1G lookup = %+v %v", e, ok)
	}
	w := pt.Walk(base + 4096)
	if !w.Found || w.NSteps != 2 {
		t.Fatalf("1G walk steps = %d (want 2: PML4+PDPT)", w.NSteps)
	}
}

func TestRadixWalkStepsAreLeveled(t *testing.T) {
	pt := NewRadix(newAlloc(t))
	k := instrument.NopMem{}
	pt.Insert(0x1000, Entry{Frame: 0x2000, Size: mem.Page4K, Present: true}, k)
	w := pt.Walk(0x1000)
	if w.NSteps != 4 {
		t.Fatalf("4K walk steps = %d, want 4", w.NSteps)
	}
	for i, lv := range []int{4, 3, 2, 1} {
		if w.Steps[i].Level != lv {
			t.Fatalf("step %d level = %d, want %d", i, w.Steps[i].Level, lv)
		}
	}
}

func TestECHParallelProbeCount(t *testing.T) {
	pt := NewECHWith(newAlloc(t), nil)
	k := instrument.NopMem{}
	pt.Insert(0x1000, Entry{Frame: 0x2000, Size: mem.Page4K, Present: true}, k)
	w := pt.Walk(0x1000)
	if w.NSteps != 4 {
		t.Fatalf("ECH probe count = %d, want 4 (one per nest)", w.NSteps)
	}
}

func TestECHElasticResize(t *testing.T) {
	pt := NewECHWith(newAlloc(t), nil)
	k := instrument.NopMem{}
	// Exceed the initial capacity (8K entries/way * 4 ways * 0.6).
	n := uint64(30000)
	for i := uint64(0); i < n; i++ {
		va := mem.VAddr(i * 4096)
		if err := pt.Insert(va, Entry{Frame: mem.PAddr(i * 4096), Size: mem.Page4K, Present: true}, k); err != nil {
			t.Fatal(err)
		}
	}
	if pt.Resizes() == 0 {
		t.Fatal("expected at least one elastic resize")
	}
	// All entries must survive resizing + migration.
	rng := xrand.New(9)
	for j := 0; j < 2000; j++ {
		i := rng.Uint64n(n)
		e, ok := pt.Lookup(mem.VAddr(i * 4096))
		if !ok || e.Frame != mem.PAddr(i*4096) {
			t.Fatalf("entry %d lost after resize: %+v %v", i, e, ok)
		}
	}
	if pt.MappedPages() != n {
		t.Fatalf("mapped pages = %d, want %d", pt.MappedPages(), n)
	}
}

func TestHDCCollisionProbing(t *testing.T) {
	pt := NewHDCWith(newAlloc(t), 16*mem.MB, nil)
	k := instrument.NopMem{}
	// Many inserts: collisions must still resolve correctly.
	for i := uint64(0); i < 20000; i++ {
		va := mem.VAddr(i * 4096)
		pt.Insert(va, Entry{Frame: mem.PAddr(0x10_0000_0000 + i*4096), Size: mem.Page4K, Present: true}, k)
	}
	for i := uint64(0); i < 20000; i += 997 {
		e, ok := pt.Lookup(mem.VAddr(i * 4096))
		if !ok || e.Frame != mem.PAddr(0x10_0000_0000+i*4096) {
			t.Fatalf("entry %d: %+v %v", i, e, ok)
		}
	}
}

func TestHTChaining(t *testing.T) {
	pt := NewHTWith(newAlloc(t), 16*mem.MB, nil)
	k := instrument.NopMem{}
	for i := uint64(0); i < 30000; i++ {
		pt.Insert(mem.VAddr(i*4096), Entry{Frame: mem.PAddr(i * 4096), Size: mem.Page4K, Present: true}, k)
	}
	if pt.MappedPages() != 30000 {
		t.Fatalf("mapped = %d", pt.MappedPages())
	}
	for i := uint64(0); i < 30000; i += 1003 {
		if _, ok := pt.Lookup(mem.VAddr(i * 4096)); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
}

// TestQuickMirrorsMap property-tests all designs against a reference map
// over random insert/remove/update sequences.
func TestQuickMirrorsMap(t *testing.T) {
	for name, pt := range allDesigns(t) {
		pt := pt
		t.Run(name, func(t *testing.T) {
			k := instrument.NopMem{}
			ref := map[mem.VAddr]Entry{}
			f := func(ops []uint16) bool {
				for _, op := range ops {
					page := mem.VAddr(op%512) * 4096
					switch (op / 512) % 3 {
					case 0:
						e := Entry{Frame: mem.PAddr(op) * 4096, Size: mem.Page4K, Present: true}
						if pt.Insert(page, e, k) == nil {
							ref[page] = e
						}
					case 1:
						_, gotOK := pt.Remove(page, k)
						_, wantOK := ref[page]
						if gotOK != wantOK {
							return false
						}
						delete(ref, page)
					case 2:
						got, ok := pt.Lookup(page)
						want, wantOK := ref[page]
						if ok != wantOK {
							return false
						}
						if ok && got.Frame != want.Frame {
							return false
						}
					}
				}
				return pt.MappedPages() == uint64(len(ref))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
