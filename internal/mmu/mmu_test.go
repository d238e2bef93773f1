package mmu

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/rangetable"
	"repro/internal/tlb"
)

func testEnv(t testing.TB) (*cache.Hierarchy, pagetable.FrameAllocator) {
	t.Helper()
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig(), dram.NewController(dram.Config{}))
	return h, phys.NewSlab(phys.New(512 * mem.MB))
}

func TestMMUTranslateThroughTLBs(t *testing.T) {
	h, alloc := testEnv(t)
	pt := pagetable.NewRadix(alloc)
	k := instrument.NopMem{}
	va := mem.VAddr(0x10_0000)
	pt.Insert(va, pagetable.Entry{Frame: 0x40_0000, Size: mem.Page4K, Present: true}, k)

	m := New(DefaultConfig(), NewRadixWalker(pt, h), 1)
	r1 := m.Translate(va+0x10, false, 0)
	if r1.Fault || r1.PA != 0x40_0010 {
		t.Fatalf("first translate: %+v", r1)
	}
	if r1.Lat <= m.cfg.STLBLat {
		t.Fatalf("cold translation too fast: %d", r1.Lat)
	}
	r2 := m.Translate(va+0x20, false, r1.Lat)
	if r2.Lat != m.cfg.DTLBLat {
		t.Fatalf("warm translation latency = %d, want L1 hit %d", r2.Lat, m.cfg.DTLBLat)
	}
	if m.Stats().Walks != 1 {
		t.Fatalf("walks = %d", m.Stats().Walks)
	}
}

func TestMMUFaultThenRetry(t *testing.T) {
	h, alloc := testEnv(t)
	pt := pagetable.NewRadix(alloc)
	m := New(DefaultConfig(), NewRadixWalker(pt, h), 1)
	va := mem.VAddr(0x20_0000)
	r := m.Translate(va, true, 0)
	if !r.Fault {
		t.Fatal("expected fault on unmapped page")
	}
	pt.Insert(va, pagetable.Entry{Frame: 0x99_0000, Size: mem.Page4K, Present: true}, instrument.NopMem{})
	r2 := m.Translate(va, true, 100)
	if r2.Fault || mem.Page4K.FrameBase(r2.PA) != 0x99_0000 {
		t.Fatalf("retry after insert: %+v", r2)
	}
}

func TestMMUShootdown(t *testing.T) {
	h, alloc := testEnv(t)
	pt := pagetable.NewRadix(alloc)
	m := New(DefaultConfig(), NewRadixWalker(pt, h), 1)
	va := mem.VAddr(0x30_0000)
	pt.Insert(va, pagetable.Entry{Frame: 0x11_0000, Size: mem.Page4K, Present: true}, instrument.NopMem{})
	m.Translate(va, false, 0)
	pt.Remove(va, instrument.NopMem{})
	m.Invalidate(va, mem.Page4K)
	if r := m.Translate(va, false, 50); !r.Fault {
		t.Fatal("stale TLB entry survived shootdown")
	}
}

// TestInvalidateASIDVA pins the cross-process shootdown: with TLB
// entries retained across context switches, dropping one page of one
// ASID leaves the same page of another ASID cached.
func TestInvalidateASIDVA(t *testing.T) {
	h, alloc := testEnv(t)
	k := instrument.NopMem{}
	va := mem.VAddr(0x50_0000)
	ptA, ptB := pagetable.NewRadix(alloc), pagetable.NewRadix(alloc)
	ptA.Insert(va, pagetable.Entry{Frame: 0xA0_0000, Size: mem.Page4K, Present: true}, k)
	ptB.Insert(va, pagetable.Entry{Frame: 0xB0_0000, Size: mem.Page4K, Present: true}, k)
	walkA, walkB := NewRadixWalker(ptA, h), NewRadixWalker(ptB, h)

	m := New(DefaultConfig(), walkA, 1)
	m.Translate(va, false, 0)
	m.SwitchContext(2, walkB, false)
	m.Translate(va, false, 100)
	m.InvalidateASIDVA(1, va, mem.Page4K)

	if r := m.Translate(va, false, 200); r.Fault || r.PA != 0xB0_0000 || r.Lat != m.cfg.DTLBLat {
		t.Fatalf("ASID 2 after ASID 1's shootdown: %+v, want an L1 DTLB hit (lat %d) on 0xB00000", r, m.cfg.DTLBLat)
	}
	m.SwitchContext(1, walkA, false)
	walks := m.Stats().Walks
	if r := m.Translate(va, false, 300); r.Fault || r.PA != 0xA0_0000 || r.Lat <= m.cfg.DTLBLat {
		t.Fatalf("ASID 1 after its shootdown: %+v, want a TLB miss on 0xA00000", r)
	}
	if got := m.Stats().Walks - walks; got != 1 {
		t.Fatalf("ASID 1 after its shootdown walked %d times, want 1", got)
	}
}

func TestPWCSkipsUpperLevels(t *testing.T) {
	h, alloc := testEnv(t)
	pt := pagetable.NewRadix(alloc)
	w := NewRadixWalker(pt, h)
	k := instrument.NopMem{}
	// Two pages sharing all upper levels.
	pt.Insert(0x1000, pagetable.Entry{Frame: 0xA000, Size: mem.Page4K, Present: true}, k)
	pt.Insert(0x2000, pagetable.Entry{Frame: 0xB000, Size: mem.Page4K, Present: true}, k)
	r1 := w.TranslateMiss(0x1000, 0)
	r2 := w.TranslateMiss(0x2000, r1.Lat)
	if r2.Lat >= r1.Lat {
		t.Fatalf("PWC should shorten the second walk: %d vs %d", r2.Lat, r1.Lat)
	}
	if w.PWCStats(3).Hits == 0 {
		t.Fatal("deepest PWC never hit")
	}
}

// countingMem counts the page-table and metadata accesses it passes on.
type countingMem struct {
	Memory
	pte, meta int
}

func (m *countingMem) AccessPTE(pa mem.PAddr, write bool, now uint64) uint64 {
	m.pte++
	return m.Memory.AccessPTE(pa, write, now)
}

func (m *countingMem) AccessMeta(pa mem.PAddr, write bool, now uint64) uint64 {
	m.meta++
	return m.Memory.AccessMeta(pa, write, now)
}

// TestRMMInvalidateDropsRange fills the RLB from a range walk, then
// invalidates a page inside the range: the next miss must walk the
// range table again instead of hitting the stale RLB entry.
func TestRMMInvalidateDropsRange(t *testing.T) {
	h, alloc := testEnv(t)
	m := &countingMem{Memory: h}
	table := rangetable.New(0x100_0000)
	table.Insert(rangetable.Range{VStart: 0x4000_0000, VEnd: 0x4040_0000, Base: 0x8000_0000}, instrument.NopMem{})
	d := NewRMMDesign(table, NewRadixWalker(pagetable.NewRadix(alloc), m), m, 1)
	va := mem.VAddr(0x4012_3000)

	r := d.TranslateMiss(va, 0)
	if r.Fault || r.PA != 0x8012_3000 || m.meta == 0 || m.pte != 0 {
		t.Fatalf("first miss: %+v after %d metadata and %d PTE accesses, want a range walk to 0x80123000", r, m.meta, m.pte)
	}
	walked := m.meta
	if r := d.TranslateMiss(va+0x1000, r.Lat); r.PA != 0x8012_4000 || m.meta != walked {
		t.Fatalf("RLB-covered miss: %+v, %d metadata accesses after %d", r, m.meta, walked)
	}
	d.Invalidate(va+0x5000, mem.Page4K)
	if r := d.TranslateMiss(va, 2*r.Lat); r.PA != 0x8012_3000 || m.meta == walked {
		t.Fatalf("miss after Invalidate: %+v, %d metadata accesses after %d: the RLB entry survived", r, m.meta, walked)
	}
}

// TestMidgardInvalidateDropsBackendEntry fills the backend TLB with a
// page's MA translation, then invalidates the page: the next miss must
// walk the backend page table again.
func TestMidgardInvalidateDropsBackendEntry(t *testing.T) {
	h, alloc := testEnv(t)
	m := &countingMem{Memory: h}
	k := instrument.NopMem{}
	vmas := rangetable.New(0x100_0000)
	vma := rangetable.Range{VStart: 0x1000_0000_0000, VEnd: 0x1000_0010_0000, Base: 1 << 30}
	vmas.Insert(vma, k)
	va := vma.VStart + 0x3000
	backend := pagetable.NewRadix(alloc)
	backend.Insert(mem.VAddr(vma.Translate(va)), pagetable.Entry{Frame: 0x7700_0000, Size: mem.Page4K, Present: true}, k)
	d := NewMidgardDesign(vmas, NewRadixWalker(backend, m), m, 1)

	r := d.TranslateMiss(va+0x10, 0)
	if r.Fault || r.PA != 0x7700_0010 || m.pte == 0 {
		t.Fatalf("first miss: %+v after %d PTE accesses, want a backend walk to 0x77000010", r, m.pte)
	}
	walked := m.pte
	if r := d.TranslateMiss(va, r.Lat); r.PA != 0x7700_0000 || m.pte != walked {
		t.Fatalf("second miss: %+v, %d PTE accesses after %d: want a backend TLB hit", r, m.pte, walked)
	}
	d.Invalidate(va, mem.Page4K)
	if r := d.TranslateMiss(va, 2*r.Lat); r.PA != 0x7700_0000 || m.pte == walked {
		t.Fatalf("miss after Invalidate: %+v, %d PTE accesses after %d: the backend TLB entry survived", r, m.pte, walked)
	}
}

func TestFixedWalkerNoMemoryTraffic(t *testing.T) {
	h, alloc := testEnv(t)
	pt := pagetable.NewRadix(alloc)
	pt.Insert(0x5000, pagetable.Entry{Frame: 0xC000, Size: mem.Page4K, Present: true}, instrument.NopMem{})
	w := &FixedWalker{PT: pt, Lat: 60}
	r := w.TranslateMiss(0x5000, 0)
	if r.Fault || r.Lat != 60 {
		t.Fatalf("fixed walk: %+v", r)
	}
	if h.Dram.Stats().Accesses[mem.ATPTE] != 0 {
		t.Fatal("fixed walker touched DRAM")
	}
}

func TestNestedTranslation(t *testing.T) {
	h, alloc := testEnv(t)
	guest := pagetable.NewRadix(alloc)
	host := pagetable.NewRadix(alloc)
	k := instrument.NopMem{}

	// Map the guest page and the host mappings for both the guest data
	// page and every guest PT node touched during the guest walk.
	gva := mem.VAddr(0x40_0000)
	gpa := mem.PAddr(0x90_0000)
	hpa := mem.PAddr(0x300_0000)
	guest.Insert(gva, pagetable.Entry{Frame: gpa, Size: mem.Page4K, Present: true}, k)
	host.Insert(mem.VAddr(gpa), pagetable.Entry{Frame: hpa, Size: mem.Page4K, Present: true}, k)
	gw := guest.Walk(gva)
	for i := 0; i < gw.NSteps; i++ {
		nodeGPA := mem.Page4K.FrameBase(gw.Steps[i].PA)
		host.Insert(mem.VAddr(nodeGPA), pagetable.Entry{
			Frame: mem.PAddr(0x500_0000) + mem.PAddr(i)*4096, Size: mem.Page4K, Present: true,
		}, k)
	}

	d := NewNestedDesign(guest, host, h)
	r := d.TranslateMiss(gva, 0)
	if r.Fault {
		t.Fatalf("nested walk faulted: %+v", r)
	}
	if mem.Page4K.FrameBase(r.PA) != hpa {
		t.Fatalf("nested PA = %x, want frame %x", r.PA, hpa)
	}
	if d.GuestWalks != 1 || d.HostWalks == 0 {
		t.Fatalf("walk counts: guest=%d host=%d", d.GuestWalks, d.HostWalks)
	}
	// Second translation: nested TLB hit, two cycles.
	r2 := d.TranslateMiss(gva, r.Lat)
	if r2.Lat >= r.Lat {
		t.Fatalf("nested TLB did not shortcut: %d vs %d", r2.Lat, r.Lat)
	}
}

// TestNestedInvalidateHugePage unmaps a 2M guest page whose 4K
// sub-pages sit in the nested TLB: every one must be dropped, and a
// translation outside the page must survive.
func TestNestedInvalidateHugePage(t *testing.T) {
	h, _ := testEnv(t)
	d := NewNestedDesign(nil, nil, h)
	base := mem.VAddr(0x4000_0000)
	outside := base + mem.VAddr(mem.Page2M.Bytes())
	subs := []mem.VAddr{base, base + 0x1000, base + 0x5000, base + 0x10_0000, base + 0x1F_F000}
	for i, va := range append(subs, outside) {
		d.nestedTLB.Insert(tlb.Entry{VPN: mem.Page4K.VPN(va), Size: mem.Page4K, Frame: mem.PAddr(0x80_0000 + i*0x1000)})
	}
	d.Invalidate(base+0x3000, mem.Page2M)
	for _, va := range subs {
		if _, ok := d.nestedTLB.Lookup(va, 0); ok {
			t.Errorf("stale nested TLB entry for %#x after the 2M unmap", va)
		}
	}
	if _, ok := d.nestedTLB.Lookup(outside, 0); !ok {
		t.Error("the 2M unmap dropped a translation outside the page")
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []func(*Config){
		func(*Config) {},
		func(c *Config) { *c = Config{} }, // zero selects DefaultConfig
		func(c *Config) { *c = Config{PWCEntries: 4, PWCWays: 2} }, // default TLBs, sized PWCs
		func(c *Config) { c.PWCWays = 3 },                          // ignored while PWCEntries is 0
	}
	for i, mod := range valid {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid config %d: %v", i, err)
		}
	}
	invalid := []struct {
		want string
		mod  func(*Config)
	}{
		{"L1I-TLB", func(c *Config) { c.ITLBWays = 0 }},
		{"L1I-TLB", func(c *Config) { c.ITLBEntries = -8 }},
		{"L1D-TLB-4K", func(c *Config) { c.DTLB4KEntries = 0 }},
		{"L1D-TLB-2M", func(c *Config) { c.DTLB2MWays = -4 }},
		{"L2-STLB", func(c *Config) { c.STLBWays = 3 }},
		{"PWC", func(c *Config) { c.PWCEntries = 4 }}, // no ways
		{"PWC", func(c *Config) { c.PWCEntries, c.PWCWays = 6, 4 }},
	}
	for i, tc := range invalid {
		cfg := DefaultConfig()
		tc.mod(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("invalid config %d: err = %v, want one naming %s", i, err, tc.want)
		}
	}
}
