package mimicos

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/tier"
)

// maxAllocsPerFault is the amortised allocation budget of one page
// fault once the kernel is warm. Page-table arenas, slab pages and the
// reclaim/tier bookkeeping grow geometrically, so a few allocations
// spread over thousands of faults fit; one per routine entered (the
// cost of an escaping exit closure) does not.
const maxAllocsPerFault = 0.1

// minMeasuredFaults is how many faults each path must measure for the
// amortised figure to mean anything.
const minMeasuredFaults = 1000

// faultAllocs first-touches foot bytes of a fresh anonymous mapping at
// stride and returns the heap allocations per fault, counted from the
// first fault at which measure reports true, and the region's base.
func faultAllocs(t *testing.T, k *Kernel, foot, stride uint64, measure func() bool) (float64, mem.VAddr) {
	t.Helper()
	k.CreateProcess(1)
	base := k.Mmap(1, foot, MmapFlags{Anon: true})
	var ms runtime.MemStats
	var mallocs0 uint64
	faults := 0
	for off := uint64(0); off < foot; off += stride {
		on := measure()
		if on && faults == 0 {
			runtime.ReadMemStats(&ms)
			mallocs0 = ms.Mallocs
		}
		if out := k.HandlePageFault(1, base+mem.VAddr(off), true, off); !out.OK {
			t.Fatalf("fault at +%#x failed", off)
		}
		if on {
			faults++
		}
	}
	runtime.ReadMemStats(&ms)
	if faults < minMeasuredFaults {
		t.Fatalf("measured %d faults, want at least %d", faults, minMeasuredFaults)
	}
	return float64(ms.Mallocs-mallocs0) / float64(faults), base
}

// pastWarmup reports true from the 65th call on: the first faults see
// each routine name, page-table level and slab class for the first time.
func pastWarmup() func() bool {
	n := 0
	return func() bool { n++; return n > 64 }
}

// TestFaultPathsAllocationFree pins the allocation-free kernel event
// path on every fault route the paper's memory studies lean on: 4K
// first touch, THP 2M zero-fill, swap-out under DRAM pressure, and tier
// demotion and promotion.
func TestFaultPathsAllocationFree(t *testing.T) {
	check := func(t *testing.T, got float64) {
		t.Helper()
		t.Logf("%.3f allocations per fault", got)
		if got >= maxAllocsPerFault {
			t.Fatalf("%.3f allocations per fault, want < %v", got, maxAllocsPerFault)
		}
	}

	t.Run("4k", func(t *testing.T) {
		k := testKernel(t, nil)
		got, _ := faultAllocs(t, k, 16*mem.MB, 4*mem.KB, pastWarmup())
		check(t, got)
	})

	t.Run("2m", func(t *testing.T) {
		if testing.Short() {
			// Each fault zero-fills 2 MB through the tracer: ~35M kernel
			// records over the run, seconds under -race.
			t.Skip("THP zero-fill of 2 GB is slow; run without -short")
		}
		k := testKernel(t, func(c *Config) { c.PhysBytes = 2*mem.GB + 128*mem.MB })
		k.SetPolicy(&LinuxTHPPolicy{})
		const foot = (64 + minMeasuredFaults) * 2 * mem.MB
		got, _ := faultAllocs(t, k, foot, 2*mem.MB, pastWarmup())
		if st := k.Stats(); st.THPFallback4K != 0 {
			t.Fatalf("%d faults fell back to 4K", st.THPFallback4K)
		}
		check(t, got)
	})

	t.Run("swapout", func(t *testing.T) {
		k := testKernel(t, func(c *Config) {
			c.PhysBytes = 24 * mem.MB
			c.SwapBytes = 512 * mem.MB
			c.SwapThreshold = 0.5
		})
		got, _ := faultAllocs(t, k, 64*mem.MB, 4*mem.KB, func() bool { return k.Stats().SwapOuts > 0 })
		check(t, got)
	})

	t.Run("tier", func(t *testing.T) {
		k := testKernel(t, func(c *Config) {
			c.PhysBytes = 24 * mem.MB
			c.SwapBytes = 512 * mem.MB
			c.SwapThreshold = 0.5
			c.Tiers = []tier.Spec{
				{Name: "cxl", Bytes: 64 * mem.MB, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
				{Name: "nvm", Bytes: 128 * mem.MB, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
			}
		})
		const foot = 64 * mem.MB
		got, base := faultAllocs(t, k, foot, 4*mem.KB, func() bool { return k.Stats().Demotions > 0 })
		if k.Stats().SwapOuts != 0 {
			t.Fatalf("%d swap-outs while the tiers had room", k.Stats().SwapOuts)
		}
		check(t, got)

		// Re-touch every demoted page: each fault promotes it back.
		p := k.Process(1)
		promo0 := k.Stats().Promotions
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		faults := 0
		for off := uint64(0); off < foot; off += 4 * mem.KB {
			va := base + mem.VAddr(off)
			if e, ok := p.PT.Lookup(va); ok && e.Present {
				continue
			}
			if out := k.HandlePageFault(1, va, false, foot+off); !out.OK {
				t.Fatalf("re-touch at +%#x failed", off)
			}
			faults++
		}
		runtime.ReadMemStats(&ms)
		if promoted := k.Stats().Promotions - promo0; promoted < minMeasuredFaults {
			t.Fatalf("re-touch promoted %d pages, want at least %d", promoted, minMeasuredFaults)
		}
		check(t, float64(ms.Mallocs-mallocs0)/float64(faults))
	})
}
