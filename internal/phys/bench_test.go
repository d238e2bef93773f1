package phys

import (
	"testing"

	"repro/internal/mem"
)

// allocator is what the layer benchmarks drive, met by Mem and by
// refMem, the extent-map allocator it replaced.
type allocator interface {
	Alloc4K() (mem.PAddr, bool)
	Alloc2M() (mem.PAddr, bool)
	Free(pa mem.PAddr, pages uint64)
	Fragment(targetFree2MFrac float64, seed uint64)
	allocSpecific(p uint64)
}

// BenchmarkLayer times the physical allocator's paths: System
// construction's New + Fragment(0.2) at 2 GB (ScaledConfig) and 16 GB,
// 4 KB and 2 MB alloc/free churn on a fragmented 2 GB memory, and
// free_top_16g, the worst case of a Free: it frees the top page of an
// otherwise free 16 GB, so the joined extent's base is 16 GB below, and
// takes the page back. Each case runs on Mem (phys/...) and on refMem
// (ref/...) with the same ops.
//
//	go test -run '^$' -bench 'BenchmarkLayer' -benchmem ./internal/phys
func BenchmarkLayer(b *testing.B) {
	for _, impl := range []struct {
		name string
		new  func(totalBytes uint64) allocator
	}{
		{"phys", func(n uint64) allocator { return New(n) }},
		{"ref", func(n uint64) allocator { return newRef(n) }},
	} {
		fragment := func(b *testing.B, totalBytes uint64) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.new(totalBytes).Fragment(0.2, uint64(i))
			}
		}
		b.Run(impl.name+"/fragment_2g", func(b *testing.B) { fragment(b, 2*mem.GB) })
		b.Run(impl.name+"/fragment_16g", func(b *testing.B) { fragment(b, 16*mem.GB) })

		// churn keeps a FIFO ring of live frames: each op frees the
		// oldest and allocates a new one.
		churn := func(b *testing.B, alloc func(allocator) (mem.PAddr, bool), pages uint64, live int) {
			m := impl.new(2 * mem.GB)
			m.Fragment(0.2, 1)
			ring := make([]mem.PAddr, live)
			for i := range ring {
				ring[i], _ = alloc(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % live
				m.Free(ring[j], pages)
				pa, ok := alloc(m)
				if !ok {
					b.Fatal("allocation failed")
				}
				ring[j] = pa
			}
		}
		b.Run(impl.name+"/churn_4k", func(b *testing.B) { churn(b, allocator.Alloc4K, 1, 4096) })
		b.Run(impl.name+"/churn_2m", func(b *testing.B) { churn(b, allocator.Alloc2M, pagesPer2M, 64) })

		b.Run(impl.name+"/free_top_16g", func(b *testing.B) {
			m := impl.new(16 * mem.GB)
			top := uint64(16*mem.GB/(4*mem.KB) - 1)
			m.allocSpecific(top)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Free(pageAddr(top), 1)
				m.allocSpecific(top)
			}
		})
	}
}
