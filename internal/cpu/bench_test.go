package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
)

// BenchmarkLayer times the core's range-record path, the kernel page
// clears and copies of faults, tier migration and swap, on the Table 4
// core and caches. The _scaled cases run the scaled caches every
// perfbench workload uses (experiments.ScaledCaches, written out here
// because importing experiments would be a cycle): 8 KB L1s, a 128 KB
// L2 and a 256 KB L3. Each op runs one record over the next page of a
// 64 MB physical window, so the lines come from DRAM and evict dirty
// lines as they do in a run. Every case must run at 0 allocs/op.
//
//	go test -run '^$' -bench 'BenchmarkLayer/core' -benchmem ./internal/cpu
func BenchmarkLayer(b *testing.B) {
	const window = 64 * mem.MB
	table4, scaled := cache.DefaultHierarchyConfig(), cache.DefaultHierarchyConfig()
	scaled.L1ISize, scaled.L1DSize, scaled.L2Size, scaled.L3Size = 8*mem.KB, 8*mem.KB, 128*mem.KB, 256*mem.KB
	for _, bc := range []struct {
		name   string
		page   uint64
		copy   bool
		caches cache.HierarchyConfig
	}{
		{"core/zero_4k", 4 * mem.KB, false, table4},
		{"core/copy_4k", 4 * mem.KB, true, table4},
		{"core/zero_2m", 2 * mem.MB, false, table4},
		{"core/zero_4k_scaled", 4 * mem.KB, false, scaled},
		{"core/copy_4k_scaled", 4 * mem.KB, true, scaled},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, _ := testCoreWith(b, bc.caches)
			lines := uint32(bc.page / mem.CacheLineBytes)
			// The zero or copy source window starts at 64 MB; a copy's
			// destination window follows it.
			s := isa.Stream{{Op: isa.OpZeroLines, Phys: true, Count: lines, PC: 0x2000}}
			if bc.copy {
				s = isa.Stream{
					{Op: isa.OpCopyLines, Phys: true, Count: lines, PC: 0x2000},
					{Op: isa.OpCopyDst, Phys: true, Count: lines},
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := uint64(i) * bc.page % window
				s[0].Addr = window + off
				if bc.copy {
					s[1].Addr = 2*window + off
				}
				c.RunStream(s)
			}
		})
	}
}
