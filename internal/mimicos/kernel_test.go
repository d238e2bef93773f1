package mimicos

import (
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// newProc creates process pid, failing tb if the kernel cannot.
func newProc(tb testing.TB, k *Kernel, pid int) *Process {
	tb.Helper()
	p, err := k.CreateProcess(pid)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func testKernel(t testing.TB, mut func(*Config)) *Kernel {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PhysBytes = 256 * mem.MB
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg, nil)
}

func TestMmapAndFault(t *testing.T) {
	k := testKernel(t, nil)
	k.CreateProcess(1)
	base := k.Mmap(1, 1*mem.MB, MmapFlags{Anon: true})
	if base == 0 {
		t.Fatal("mmap returned 0")
	}
	out := k.HandlePageFault(1, base+0x123, true, 0)
	if !out.OK {
		t.Fatal("fault failed")
	}
	stream := k.TakeStream()
	if stream.Instructions() == 0 {
		t.Fatal("fault produced no kernel instructions")
	}
	e, ok := k.Process(1).PT.Lookup(base)
	if !ok || !e.Present {
		t.Fatalf("PTE missing after fault: %+v %v", e, ok)
	}
	if k.Stats().MinorFaults != 1 {
		t.Fatalf("minor faults = %d", k.Stats().MinorFaults)
	}
}

// TestMidgardMapsVMAsToDisjointMA checks the Midgard address cursor:
// each VMA's MA range starts 2 MB-aligned past the previous one's end
// plus a 2 MB gap, the first at 1 GB, and a fault's page-table key is
// the address translated into that range.
func TestMidgardMapsVMAsToDisjointMA(t *testing.T) {
	k := testKernel(t, nil)
	p, _ := k.CreateProcess(1)
	k.EnableMidgard(p)
	a := k.Mmap(1, 3*mem.MB+4*mem.KB, MmapFlags{Anon: true})
	b := k.Mmap(1, 64*mem.KB, MmapFlags{Anon: true})
	ra, okA := p.Midgard.Find(a, nil)
	rb, okB := p.Midgard.Find(b+0x1000, nil)
	if !okA || !okB {
		t.Fatalf("VMA lookups = %v %v", okA, okB)
	}
	if ra.Base != 1<<30 || rb.Base != 1<<30+4*mem.MB+2*mem.MB {
		t.Fatalf("MA bases = %#x %#x, want %#x %#x", ra.Base, rb.Base, 1<<30, 1<<30+6*mem.MB)
	}
	if !k.HandlePageFault(1, b+0x1000, true, 0).OK {
		t.Fatal("fault failed")
	}
	if _, ok := p.PT.Lookup(mem.VAddr(rb.Base) + 0x1000); !ok {
		t.Fatal("page table is not keyed by the Midgard address")
	}
}

func TestFaultOutsideVMAIsSegv(t *testing.T) {
	k := testKernel(t, nil)
	k.CreateProcess(1)
	out := k.HandlePageFault(1, 0xdead0000, false, 0)
	if out.OK {
		t.Fatal("fault outside any VMA succeeded")
	}
	if k.Stats().SegvFaults != 1 {
		t.Fatalf("segv count = %d", k.Stats().SegvFaults)
	}
}

func TestTHPAllocates2M(t *testing.T) {
	k := testKernel(t, nil)
	k.SetPolicy(&LinuxTHPPolicy{})
	k.CreateProcess(1)
	base := k.Mmap(1, 8*mem.MB, MmapFlags{Anon: true})
	out := k.HandlePageFault(1, base, true, 0)
	if !out.OK || out.Size != mem.Page2M {
		t.Fatalf("THP fault: %+v", out)
	}
	// The synchronous 2MB zeroing must appear in the stream.
	if n := k.TakeStream().Instructions(); n < 32768 {
		t.Fatalf("THP fault stream too short for 2MB zeroing: %d", n)
	}
	// No further faults inside the region.
	if e, ok := k.Process(1).PT.Lookup(base + 1*mem.MB); !ok || !e.Present {
		t.Fatalf("2M mapping does not cover region: %+v %v", e, ok)
	}
}

func TestTHPFallbackWhenFragmented(t *testing.T) {
	k := testKernel(t, nil)
	k.SetPolicy(&LinuxTHPPolicy{})
	k.Phys.Fragment(0, 1) // no free 2MB blocks
	k.CreateProcess(1)
	base := k.Mmap(1, 8*mem.MB, MmapFlags{Anon: true})
	out := k.HandlePageFault(1, base, true, 0)
	if !out.OK || out.Size != mem.Page4K {
		t.Fatalf("fallback fault: %+v", out)
	}
	if k.Stats().THPFallback4K == 0 {
		t.Fatal("fallback not counted")
	}
}

func TestReservationUpgrade(t *testing.T) {
	k := testKernel(t, nil)
	k.SetPolicy(&ReservationTHPPolicy{UpgradeFrac: 0.02, PolicyName: "test-thp"})
	k.CreateProcess(1)
	base := k.Mmap(1, 4*mem.MB, MmapFlags{Anon: true})
	// 0.02*512 ≈ 11 faults to trigger the upgrade.
	var upgraded bool
	for i := 0; i < 16; i++ {
		out := k.HandlePageFault(1, base+mem.VAddr(i*4096), true, 0)
		if !out.OK {
			t.Fatalf("fault %d failed", i)
		}
		if out.Size == mem.Page2M {
			upgraded = true
			break
		}
	}
	if !upgraded {
		t.Fatal("reservation never upgraded")
	}
	if k.Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d", k.Stats().Upgrades)
	}
	e, ok := k.Process(1).PT.Lookup(base)
	if !ok || e.Size != mem.Page2M {
		t.Fatalf("post-upgrade mapping: %+v %v", e, ok)
	}
}

func TestFileBackedUsesPageCache(t *testing.T) {
	k := testKernel(t, func(c *Config) { c.PrepopulatePageCache = true })
	k.CreateProcess(1)
	base := k.Mmap(1, 1*mem.MB, MmapFlags{File: true, FileID: 5})
	out := k.HandlePageFault(1, base, false, 0)
	if !out.OK || out.Major {
		t.Fatalf("prepopulated file fault should be minor: %+v", out)
	}
	if k.Stats().PageCacheHits != 1 {
		t.Fatalf("page cache hits = %d", k.Stats().PageCacheHits)
	}
}

func TestFileBackedMissReadsDisk(t *testing.T) {
	k := testKernel(t, func(c *Config) { c.PrepopulatePageCache = false })
	k.CreateProcess(1)
	base := k.Mmap(1, 1*mem.MB, MmapFlags{File: true, FileID: 5})
	out := k.HandlePageFault(1, base, false, 0)
	if !out.OK || !out.Major || out.DeviceCycles == 0 {
		t.Fatalf("cold file fault should be major: %+v", out)
	}
	// Second access to the same page hits the cache.
	k.Munmap(1, base, 4096)
	base2 := k.Mmap(1, 1*mem.MB, MmapFlags{File: true, FileID: 5, FixedAddr: base})
	out2 := k.HandlePageFault(1, base2, false, 0)
	if out2.Major {
		t.Fatalf("second fault should hit page cache: %+v", out2)
	}
}

func TestHugeTLBFault(t *testing.T) {
	k := testKernel(t, nil)
	if got := k.ReserveHugeTLB(4); got != 4 {
		t.Fatalf("reserved %d", got)
	}
	k.CreateProcess(1)
	base := k.Mmap(1, 4*mem.MB, MmapFlags{HugeTLB: true})
	out := k.HandlePageFault(1, base, true, 0)
	if !out.OK || out.Size != mem.Page2M {
		t.Fatalf("hugetlb fault: %+v", out)
	}
	if k.Stats().HugeTLBFaults != 1 {
		t.Fatal("hugetlb fault not counted")
	}
}

func TestOneGigFault(t *testing.T) {
	k := New(Config{PhysBytes: 3 * mem.GB, PTKind: PTRadix, Enable1G: true, SwapThreshold: 0.99}, nil)
	k.CreateProcess(1)
	base := k.Mmap(1, 2*mem.GB, MmapFlags{File: true, DAX: true, Huge1G: true, FileID: 9})
	out := k.HandlePageFault(1, base, true, 0)
	if !out.OK || out.Size != mem.Page1G {
		t.Fatalf("1G fault: %+v", out)
	}
	if k.Stats().OneGigFaults != 1 {
		t.Fatal("1G fault not counted")
	}
}

func TestSwapOutInRoundTrip(t *testing.T) {
	k := testKernel(t, nil)
	p := newProc(t, k, 1)
	base := k.Mmap(1, 64*mem.KB, MmapFlags{Anon: true})
	k.HandlePageFault(1, base, true, 0)
	k.Tracer.Begin()
	if !k.swapOutPage(p, base, mem.Page4K, k.Tracer, 0, false) {
		t.Fatal("swap out failed")
	}
	e, ok := p.PT.Lookup(base)
	if !ok || !e.Swapped {
		t.Fatalf("PTE not marked swapped: %+v %v", e, ok)
	}
	out := k.HandlePageFault(1, base, false, 0)
	if !out.OK || !out.Major {
		t.Fatalf("swap-in fault: %+v", out)
	}
	if k.Stats().SwapIns != 1 || k.Stats().SwapOuts != 1 {
		t.Fatalf("swap stats: %+v", k.Stats())
	}
}

func TestDirectReclaimUnderPressure(t *testing.T) {
	k := New(Config{PhysBytes: 32 * mem.MB, PTKind: PTRadix, SwapBytes: 64 * mem.MB, SwapThreshold: 0.5}, nil)
	k.CreateProcess(1)
	base := k.Mmap(1, 28*mem.MB, MmapFlags{Anon: true})
	for i := uint64(0); i < 28*mem.MB/4096; i++ {
		out := k.HandlePageFault(1, base+mem.VAddr(i*4096), true, 0)
		if !out.OK {
			t.Fatalf("fault %d failed (free=%d)", i, k.Phys.FreePages())
		}
	}
	if k.Stats().SwapOuts == 0 {
		t.Fatal("no reclaim happened above the watermark")
	}
}

func TestKhugepagedCollapse(t *testing.T) {
	k := testKernel(t, func(c *Config) {
		c.KhugeEveryNFaults = 256
		c.KhugeScanRegions = 8
		// Keep reclaim out of the picture: held blocks push usage high.
		c.SwapThreshold = 0.995
	})
	k.SetPolicy(&LinuxTHPPolicy{})
	// Hold every free 2MB block so THP falls back and enqueues
	// candidates, then hand back scattered 4 KB pages (odd pages of a few
	// blocks) so the fallback path has frames without 2MB contiguity.
	var held []mem.PAddr
	for {
		pa, ok := k.Phys.Alloc2M()
		if !ok {
			break
		}
		held = append(held, pa)
	}
	for b := 0; b < 16; b++ {
		blk := held[len(held)-1]
		held = held[:len(held)-1]
		for pg := 1; pg < 512; pg += 2 {
			k.Phys.Free(blk+mem.PAddr(pg*4096), 1)
		}
	}
	k.CreateProcess(1)
	base := k.Mmap(1, 2*mem.MB, MmapFlags{Anon: true})
	for i := 0; i < 512; i++ {
		k.HandlePageFault(1, base+mem.VAddr(i*4096), true, 0)
	}
	// ...then release contiguity and generate further faults elsewhere
	// so the periodic scan finds the fully populated region collapsible.
	for _, pa := range held {
		k.Phys.Free(pa, 512)
	}
	aux := k.Mmap(1, 4*mem.MB, MmapFlags{Anon: true})
	for i := 0; i < 600; i++ {
		k.HandlePageFault(1, aux+mem.VAddr(i*4096), true, 0)
	}
	if k.Stats().Collapses == 0 {
		t.Fatal("khugepaged never collapsed an eligible region")
	}
	e, ok := k.Process(1).PT.Lookup(base)
	if !ok || e.Size != mem.Page2M {
		t.Fatalf("collapsed region not 2M-mapped: %+v %v", e, ok)
	}
}

func TestMunmapFreesMemory(t *testing.T) {
	k := testKernel(t, nil)
	k.CreateProcess(1)
	base := k.Mmap(1, 1*mem.MB, MmapFlags{Anon: true})
	for i := 0; i < 16; i++ {
		k.HandlePageFault(1, base+mem.VAddr(i*4096), true, 0)
	}
	free := k.Phys.FreePages()
	k.Munmap(1, base, 1*mem.MB)
	if k.Phys.FreePages() <= free {
		t.Fatal("munmap freed nothing")
	}
	if k.VMAOf(1, base) != nil {
		t.Fatal("VMA survived munmap")
	}
	if out := k.HandlePageFault(1, base, false, 0); out.OK {
		t.Fatal("fault on unmapped region succeeded")
	}
}

func TestMultithreadedKernelFaults(t *testing.T) {
	// §4.3: concurrent requests from multiple processes must be safe.
	k := testKernel(t, nil)
	const workers = 8
	bases := make([]mem.VAddr, workers)
	for w := 0; w < workers; w++ {
		k.CreateProcess(w + 1)
		bases[w] = k.Mmap(w+1, 2*mem.MB, MmapFlags{Anon: true})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				out := k.HandlePageFault(w+1, bases[w]+mem.VAddr(i*4096), true, 0)
				if !out.OK {
					t.Errorf("worker %d fault %d failed", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < 64; i++ {
			if _, ok := k.Process(w + 1).PT.Lookup(bases[w] + mem.VAddr(i*4096)); !ok {
				t.Fatalf("worker %d page %d unmapped", w, i)
			}
		}
	}
}

func TestFullKernelModeEmitsMore(t *testing.T) {
	lean := testKernel(t, nil)
	full := testKernel(t, func(c *Config) { c.FullKernel = true })
	for _, k := range []*Kernel{lean, full} {
		k.CreateProcess(1)
		base := k.Mmap(1, 64*mem.KB, MmapFlags{Anon: true})
		k.HandlePageFault(1, base, true, 0)
	}
	ln := lean.TakeStream().Instructions()
	fn := full.TakeStream().Instructions()
	if fn <= ln {
		t.Fatalf("full-kernel stream (%d) not larger than lean (%d)", fn, ln)
	}
}

var _ = pagetable.Entry{}
