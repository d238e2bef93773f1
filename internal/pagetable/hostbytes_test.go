//go:build !race

package pagetable

import (
	"runtime"
	"testing"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// hostBytes returns the bytes build allocates on the host.
func hostBytes(build func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPageTableHostBytes holds the radix and ECH tables to host-memory
// budgets that grow with what they map, about 1.25× the measured
// figures on Go 1.24 linux/amd64. The allocator keeps no host state, so
// the counts are the tables' own. The race detector allocates on its
// own account, so the test is not built under -race.
func TestPageTableHostBytes(t *testing.T) {
	k := instrument.NopMem{}
	radix := func(n int, step uint64, size mem.PageSize) func() {
		return func() {
			pt := NewRadix(&bumpAlloc{})
			for i := uint64(0); i < uint64(n); i++ {
				must(pt.Insert(mem.VAddr(0x7f00_0000_0000+i*step), Entry{Frame: mem.PAddr(i+1) << 12, Size: size, Present: true}, k))
			}
		}
	}
	for _, tc := range []struct {
		name   string
		pages  int
		build  func()
		budget float64 // host bytes per mapped page
	}{
		// Dense 4K: an Entry and a leaf pointer per page, one PT per
		// 512 pages. Measured 34.3 B (44.7 B with every node carrying
		// both arrays).
		{"radix-dense-4k", 1 << 16, radix(1<<16, 4*mem.KB, mem.Page4K), 43},
		// Sparse 4K, one page per 2 MB: a PT and its leaf array per
		// page. Measured 4,285 B (8,738 B).
		{"radix-sparse-4k", 1024, radix(1024, 2*mem.MB, mem.Page4K), 5350},
		// 2M pages: leaves in the PDs, no PTs. Measured 41.4 B (90.1 B).
		{"radix-2m", 4096, radix(4096, 2*mem.MB, mem.Page2M), 52},
	} {
		got := float64(hostBytes(tc.build)) / float64(tc.pages)
		t.Logf("%s: %.1f B per mapped page (budget %.1f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f host bytes per mapped page, budget %.1f", tc.name, got, tc.budget)
		}
	}

	// An ECH table with about as many 4K pages as a replay point maps,
	// and a few 2M pages: only the slot pages it writes exist, and a
	// record per mapped page. Measured 130,880 B (640,512 B with 32-byte
	// records in the slot pages themselves, 2,102,912 B with a dense
	// slot array per generation).
	const echBudget = 164_000
	got := hostBytes(func() {
		pt := NewECHWith(&bumpAlloc{}, nil)
		rng := xrand.New(0xB17E)
		for i := 0; i < 1300; i++ {
			va := mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
			must(pt.Insert(va, Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, k))
		}
		for i := uint64(0); i < 8; i++ {
			va := mem.VAddr(0x40_0000_0000 + i*2*mem.MB)
			must(pt.Insert(va, Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, k))
		}
	})
	t.Logf("ech: %d host bytes for 1300 4K and 8 2M pages (budget %d)", got, echBudget)
	if got > echBudget {
		t.Errorf("ech: %d host bytes for 1300 4K and 8 2M pages, budget %d", got, echBudget)
	}
}
