package cache

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
)

// BenchmarkLayer times the cache layer's per-operation paths in
// isolation, on the Table 4 geometries (32 KB 8-way LRU L1, 2 MB 16-way
// SRRIP L2). Every case must run at 0 allocs/op.
//
//	go test -run '^$' -bench 'BenchmarkLayer/cache' -benchmem ./internal/cache
func BenchmarkLayer(b *testing.B) {
	cfg := DefaultHierarchyConfig()
	line := func(i int) mem.PAddr { return mem.PAddr(i) << mem.CacheLineShift }
	// picks returns 64 Ki addresses drawn at random from the first n
	// lines: an order too long for a branch predictor to learn, so hits
	// land on unpredictable ways as they do in a run.
	picks := func(n int) []mem.PAddr {
		rng := rand.New(rand.NewPCG(1, 2))
		a := make([]mem.PAddr, 1<<16)
		for i := range a {
			a[i] = line(rng.IntN(n))
		}
		return a
	}

	b.Run("cache/l1_hit", func(b *testing.B) {
		c := New("L1D", cfg.L1DSize, cfg.L1Ways, cfg.L1Latency, LRU)
		n := int(cfg.L1DSize / mem.CacheLineBytes) // exactly fills L1
		for i := 0; i < n; i++ {
			c.fill(line(i), false, false)
		}
		ws := picks(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.Access(ws[i&(len(ws)-1)], false, mem.ATData) {
				b.Fatal("resident line missed")
			}
		}
	})

	b.Run("cache/l2_hit_l1_fill", func(b *testing.B) {
		// A working set of half the L2 through L1D: nearly every access
		// misses L1D, hits L2 and fills L1D over its LRU victim.
		hc := cfg
		hc.EnablePrefetch = false
		h := NewHierarchy(hc, dram.NewController(dram.Config{}))
		n := int(cfg.L2Size / mem.CacheLineBytes / 2)
		for i := 0; i < n; i++ {
			h.Access(line(i), false, mem.ATData, 0, 0)
		}
		ws := picks(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(ws[i&(len(ws)-1)], false, mem.ATData, 0, 0)
		}
	})

	b.Run("cache/store_stream_dirty", func(b *testing.B) {
		// Stores to fresh lines through the scaled caches, with the
		// prefetchers off: once every level is full of dirty lines, each
		// access misses to DRAM and every demand fill evicts a dirty line,
		// so each op runs three write-back steps.
		hc := scaledCaches(false)
		h := NewHierarchy(hc, dram.NewController(dram.Config{}))
		n := int(hc.L3Size / mem.CacheLineBytes)
		var now uint64
		for i := 0; i < n; i++ {
			now += h.Access(line(i), true, mem.ATData, 0, now)
		}
		levels := [...]*Cache{h.L1D, h.L2, h.L3}
		var before [len(levels)]Stats
		for i, c := range levels {
			before[i] = *c.Stats()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += h.Access(line(n+i), true, mem.ATData, 0, now)
		}
		b.StopTimer()
		for i, c := range levels {
			if e, w := c.Stats().Evictions-before[i].Evictions, c.Stats().Writebacks-before[i].Writebacks; e < uint64(b.N) || w != e {
				b.Fatalf("level %d: %d ops evicted %d lines, %d of them dirty", i+1, b.N, e, w)
			}
		}
	})

	missFill := func(b *testing.B, c *Cache) {
		// Fill to capacity first, then stream fresh lines: each access
		// misses and the fill evicts from a full set.
		n := len(c.tags)
		for i := 0; i < n; i++ {
			c.fill(line(i), false, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pa := line(n + i); !c.Access(pa, false, mem.ATData) {
				c.fill(pa, false, false)
			}
		}
	}
	b.Run("cache/miss_fill_full_lru", func(b *testing.B) {
		missFill(b, New("L1D", cfg.L1DSize, cfg.L1Ways, cfg.L1Latency, LRU))
	})
	b.Run("cache/miss_fill_full_srrip", func(b *testing.B) {
		missFill(b, New("L2", cfg.L2Size, cfg.L2Ways, cfg.L2Latency, SRRIP))
	})

	b.Run("cache/probe_present", func(b *testing.B) {
		// The prefetch path's fused probe on a line that is already there.
		c := New("L2", cfg.L2Size, cfg.L2Ways, cfg.L2Latency, SRRIP)
		n := int(cfg.L2Size / mem.CacheLineBytes) // exactly fills L2
		for i := 0; i < n; i++ {
			c.fill(line(i), false, false)
		}
		ws := picks(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, present := c.fill(ws[i&(len(ws)-1)], false, true); !present {
				b.Fatal("resident line reported absent")
			}
		}
	})
}
