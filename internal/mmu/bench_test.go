package mmu

import (
	"math/rand/v2"
	"testing"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/rangetable"
)

// flatMem charges every page-table and metadata access one cycle, so
// the layer benchmarks time the translation structures rather than
// the cache hierarchy behind them.
type flatMem struct{}

func (flatMem) AccessPTE(mem.PAddr, bool, uint64) uint64  { return 1 }
func (flatMem) AccessMeta(mem.PAddr, bool, uint64) uint64 { return 1 }

// BenchmarkLayer times a translation miss through each walker in
// isolation, with every memory access charged one cycle:
//   - radix_pwc_hit: 4,096 pages in 16 2 MB regions, so the depth-3 PWC
//     (Table 4: 32 entries, 4 ways) holds every PT pointer and each walk
//     reads only the leaf;
//   - radix_pwc_miss: 256 pages, each in its own 512 GB region, so the
//     three PWCs miss on almost every walk and it reads all four levels;
//   - rmm_range_walk: 1,024 ranges, which the 64-entry RLB mostly
//     misses, so each op walks the four-level range table;
//   - midgard_vlb_miss: 1,024 VMAs, which the VLBs mostly miss, so each
//     op walks the VMA table, then translates the MA through the
//     backend TLB or the backend radix walk;
//   - hdc_walk: 4,096 scattered pages in a 16 MB HDC table, so each
//     walk probes the 2M table, then finds the 4K cluster, mostly in
//     its home bucket;
//   - ht_walk: 16,384 scattered pages in a 64 KB HT table (896 4K
//     buckets), so most walks hop along a chain of overflow groups;
//   - ech_walk: 4,096 scattered pages in an ECH table below its resize
//     threshold, so each walk issues the four nest probes of one
//     generation;
//   - ech_walk_migrating: 20,000 pages, past the 4K table's resize and
//     mid-way through its gradual migration, so each walk probes the
//     nests of both generations.
//
// Addresses are drawn at random from the mapped set, in an order too
// long for a branch predictor to learn. Every case runs at 0
// allocs/op.
//
//	go test -run '^$' -bench 'BenchmarkLayer/mmu' -benchmem ./internal/mmu
func BenchmarkLayer(b *testing.B) {
	k := instrument.NopMem{}
	picks := func(vas []mem.VAddr) []mem.VAddr {
		rng := rand.New(rand.NewPCG(1, 2))
		a := make([]mem.VAddr, 1<<16)
		for i := range a {
			a[i] = vas[rng.IntN(len(vas))]
		}
		return a
	}
	run := func(b *testing.B, d Design, vas []mem.VAddr) {
		ws := picks(vas)
		for _, va := range vas {
			if d.TranslateMiss(va, 0).Fault {
				b.Fatalf("%#x is unmapped", va)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.TranslateMiss(ws[i&(len(ws)-1)], uint64(i))
		}
	}
	radix := func(vas []mem.VAddr) *RadixWalker {
		pt := pagetable.NewRadix(phys.NewSlab(phys.New(64 * mem.MB)))
		for i, va := range vas {
			pt.Insert(va, pagetable.Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, k)
		}
		return NewRadixWalker(pt, flatMem{})
	}

	b.Run("mmu/radix_pwc_hit", func(b *testing.B) {
		vas := make([]mem.VAddr, 4096)
		for i := range vas {
			vas[i] = 0x7f00_0000_0000 + mem.VAddr(i%16)<<21 + mem.VAddr(i/16)<<12
		}
		w := radix(vas)
		run(b, w, vas)
		if s := w.PWCStats(3); s.Misses > 16 {
			b.Fatalf("depth-3 PWC missed %d times, want only its 16 cold misses", s.Misses)
		}
	})

	b.Run("mmu/radix_pwc_miss", func(b *testing.B) {
		vas := make([]mem.VAddr, 256)
		for i := range vas {
			vas[i] = mem.VAddr(i) << 39
		}
		w := radix(vas)
		run(b, w, vas)
		if s := w.PWCStats(1); s.Hits > s.Misses/4 {
			b.Fatalf("depth-1 PWC hit %d times against %d misses", s.Hits, s.Misses)
		}
	})

	// ranges returns n 64 KB ranges 1 MB apart and an address inside
	// each.
	ranges := func(n int) ([]rangetable.Range, []mem.VAddr) {
		rs := make([]rangetable.Range, n)
		vas := make([]mem.VAddr, n)
		for i := range rs {
			start := 0x1000_0000_0000 + mem.VAddr(i)<<20
			rs[i] = rangetable.Range{VStart: start, VEnd: start + 64*mem.KB, Base: 1<<30 + mem.PAddr(i)<<21}
			vas[i] = start + 0x3000
		}
		return rs, vas
	}

	b.Run("mmu/rmm_range_walk", func(b *testing.B) {
		rs, vas := ranges(1024)
		table := rangetable.New(0x100_0000)
		for _, r := range rs {
			table.Insert(r, k)
		}
		run(b, NewRMMDesign(table, radix(nil), flatMem{}, 1), vas)
	})

	b.Run("mmu/midgard_vlb_miss", func(b *testing.B) {
		rs, vas := ranges(1024)
		vmas := rangetable.New(0x100_0000)
		mas := make([]mem.VAddr, len(rs))
		for i, r := range rs {
			vmas.Insert(r, k)
			mas[i] = mem.VAddr(r.Translate(vas[i]))
		}
		run(b, NewMidgardDesign(vmas, radix(mas), flatMem{}, 1), vas)
	})

	// hashed maps n scattered 4K pages into pt and returns their
	// addresses.
	hashed := func(pt pagetable.PageTable, n int) []mem.VAddr {
		rng := rand.New(rand.NewPCG(3, 4))
		vas := make([]mem.VAddr, n)
		for i := range vas {
			vas[i] = mem.VAddr(rng.Uint64N(1<<36)) &^ 0xfff
			if err := pt.Insert(vas[i], pagetable.Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, k); err != nil {
				b.Fatal(err)
			}
		}
		return vas
	}
	alloc := func() pagetable.FrameAllocator { return phys.NewSlab(phys.New(64 * mem.MB)) }

	b.Run("mmu/hdc_walk", func(b *testing.B) {
		pt, err := pagetable.NewHDCWith(alloc(), 16*mem.MB, nil)
		if err != nil {
			b.Fatal(err)
		}
		run(b, &HashWalker{PT: pt, Mem: flatMem{}}, hashed(pt, 4096))
	})

	b.Run("mmu/ht_walk", func(b *testing.B) {
		pt, err := pagetable.NewHTWith(alloc(), 64*mem.KB, nil)
		if err != nil {
			b.Fatal(err)
		}
		vas := hashed(pt, 16384)
		run(b, &HashWalker{PT: pt, Mem: flatMem{}}, vas)
		if w := pt.Walk(vas[0]); w.NSteps < 2 {
			b.Fatalf("walk took %d steps, want a chain hop", w.NSteps)
		}
	})

	ech := func(b *testing.B, n, steps int) {
		pt := pagetable.NewECHWith(alloc(), nil)
		vas := hashed(pt, n)
		run(b, &HashWalker{PT: pt, Mem: flatMem{}, CWCLat: 2}, vas)
		if w := pt.Walk(vas[0]); w.NSteps != steps {
			b.Fatalf("walk probed %d nests, want %d", w.NSteps, steps)
		}
	}
	b.Run("mmu/ech_walk", func(b *testing.B) { ech(b, 4096, 4) })
	b.Run("mmu/ech_walk_migrating", func(b *testing.B) { ech(b, 20000, 8) })
}
