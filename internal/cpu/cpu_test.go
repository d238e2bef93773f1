package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/phys"
)

func testCore(t testing.TB) (*Core, pagetable.PageTable) {
	t.Helper()
	return testCoreWith(t, cache.DefaultHierarchyConfig())
}

// testCoreWith is testCore over the given cache hierarchy.
func testCoreWith(t testing.TB, caches cache.HierarchyConfig) (*Core, pagetable.PageTable) {
	t.Helper()
	h := cache.NewHierarchy(caches, dram.NewController(dram.Config{}))
	pt := pagetable.NewRadix(phys.NewSlab(phys.New(256 * mem.MB)))
	m := mmu.New(mmu.DefaultConfig(), mmu.NewRadixWalker(pt, h), 1)
	return New(DefaultConfig(), h, m), pt
}

func mapPage(pt pagetable.PageTable, va mem.VAddr, pa mem.PAddr) {
	pt.Insert(va, pagetable.Entry{Frame: pa, Size: mem.Page4K, Present: true, Writable: true}, instrument.NopMem{})
}

func TestALUThroughput(t *testing.T) {
	c, _ := testCore(t)
	c.Run(isa.ALU(4000))
	st := c.Stats()
	if st.AppInsts != 4000 {
		t.Fatalf("insts = %d", st.AppInsts)
	}
	// 4-wide: ~1000 cycles plus fetch effects.
	if st.Cycles < 1000 || st.Cycles > 2000 {
		t.Fatalf("cycles = %d for 4000 ALU at width 4", st.Cycles)
	}
}

func TestLoadChargesTranslationAndMemory(t *testing.T) {
	c, pt := testCore(t)
	mapPage(pt, 0x10000, 0x20000)
	c.Run(isa.Load(0x400000, 0x10008))
	st := c.Stats()
	if st.Loads != 1 {
		t.Fatalf("loads = %d", st.Loads)
	}
	if st.TranslationCycles == 0 {
		t.Fatal("cold translation charged nothing")
	}
	if st.MemoryCycles == 0 {
		t.Fatal("memory access charged nothing")
	}
}

func TestFaultHandlerInvokedAndRetried(t *testing.T) {
	c, pt := testCore(t)
	called := 0
	c.SetFaultHandler(func(va mem.VAddr, write bool) bool {
		called++
		mapPage(pt, mem.Page4K.PageBase(va), 0x30000)
		return true
	})
	c.Run(isa.Store(0x400000, 0x50000))
	if called != 1 {
		t.Fatalf("fault handler called %d times", called)
	}
	if c.Stats().SegvFaults != 0 {
		t.Fatal("retry after resolution still faulted")
	}
}

func TestUnresolvedFaultCountsSegv(t *testing.T) {
	c, _ := testCore(t)
	c.SetFaultHandler(func(mem.VAddr, bool) bool { return false })
	c.Run(isa.Load(0x400000, 0x60000))
	if c.Stats().SegvFaults == 0 {
		t.Fatal("segv not counted")
	}
}

func TestKernelStreamBypassesTranslation(t *testing.T) {
	c, _ := testCore(t)
	s := isa.Stream{
		{Op: isa.OpLoad, Count: 1, Addr: 0x123400, Phys: true, PC: 0xffff_8000_0000_0100},
		{Op: isa.OpALU, Count: 100, Phys: true},
	}
	spent := c.RunStream(s)
	if spent == 0 {
		t.Fatal("stream cost nothing")
	}
	st := c.Stats()
	if st.KernelInsts != 101 {
		t.Fatalf("kernel insts = %d", st.KernelInsts)
	}
	if st.AppInsts != 0 {
		t.Fatalf("app insts = %d", st.AppInsts)
	}
	if c.MMU().Stats().DataTranslations != 0 {
		t.Fatal("kernel load was translated")
	}
}

func TestDelayChargesExactCycles(t *testing.T) {
	c, _ := testCore(t)
	before := c.Now()
	c.Run(isa.Inst{Op: isa.OpDelay, Count: 12345})
	if got := c.Now() - before; got != 12345 {
		t.Fatalf("delay advanced %d cycles", got)
	}
	if c.Stats().DelayCycles != 12345 {
		t.Fatalf("delay cycles = %d", c.Stats().DelayCycles)
	}
}

func TestAtomicsSerialise(t *testing.T) {
	c, pt := testCore(t)
	mapPage(pt, 0x10000, 0x20000)
	// Warm the line and TLB.
	c.Run(isa.Load(0x400000, 0x10000))
	base := c.Now()
	c.Run(isa.Load(0x400004, 0x10000))
	loadCost := c.Now() - base
	base = c.Now()
	c.Run(isa.Inst{Op: isa.OpAtomic, Count: 1, PC: 0x400008, Addr: 0x10000})
	atomicCost := c.Now() - base
	if atomicCost <= loadCost {
		t.Fatalf("atomic (%d) should cost more than warm load (%d)", atomicCost, loadCost)
	}
}
