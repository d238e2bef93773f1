package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	virtuoso "repro"
)

// simCounts are the exact simulated work counters of one or more runs.
// A change that only speeds the simulator up must leave every one of
// them unchanged; their hash is the workloads' result digest.
type simCounts struct {
	AppInsts, KernelInsts, Cycles   uint64
	L2TLBMisses, Walks, WalkCycles  uint64
	MinorFaults, MajorFaults        uint64
	SwapOuts, Demotions, Promotions uint64
	DramAccesses, DramRowConflicts  uint64
	CtxSwitches                     uint64
	Segvs                           uint64
}

// countsOf extracts the counters of one run's metrics.
func countsOf(m virtuoso.Metrics) simCounts {
	return simCounts{
		AppInsts: m.AppInsts, KernelInsts: m.KernelInsts, Cycles: m.Cycles,
		L2TLBMisses: m.L2TLBMisses, Walks: m.Walks, WalkCycles: m.WalkCycles,
		MinorFaults: m.MinorFaults, MajorFaults: m.MajorFaults,
		SwapOuts: m.OS.SwapOuts, Demotions: m.OS.Demotions, Promotions: m.OS.Promotions,
		DramAccesses: m.Dram.TotalAccesses(), DramRowConflicts: m.Dram.TotalConflicts(),
		Segvs: m.Segvs,
	}
}

func (c *simCounts) add(o simCounts) {
	c.AppInsts += o.AppInsts
	c.KernelInsts += o.KernelInsts
	c.Cycles += o.Cycles
	c.L2TLBMisses += o.L2TLBMisses
	c.Walks += o.Walks
	c.WalkCycles += o.WalkCycles
	c.MinorFaults += o.MinorFaults
	c.MajorFaults += o.MajorFaults
	c.SwapOuts += o.SwapOuts
	c.Demotions += o.Demotions
	c.Promotions += o.Promotions
	c.DramAccesses += o.DramAccesses
	c.DramRowConflicts += o.DramRowConflicts
	c.CtxSwitches += o.CtxSwitches
	c.Segvs += o.Segvs
}

// named lists the counters under their per-layer metric names.
func (c simCounts) named() []struct {
	name string
	v    uint64
} {
	return []struct {
		name string
		v    uint64
	}{
		{"sim.app_insts", c.AppInsts},
		{"sim.kernel_insts", c.KernelInsts},
		{"sim.cycles", c.Cycles},
		{"sim.l2tlb_misses", c.L2TLBMisses},
		{"sim.walks", c.Walks},
		{"sim.walk_cycles", c.WalkCycles},
		{"sim.minor_faults", c.MinorFaults},
		{"sim.major_faults", c.MajorFaults},
		{"sim.swap_outs", c.SwapOuts},
		{"sim.demotions", c.Demotions},
		{"sim.promotions", c.Promotions},
		{"sim.dram_accesses", c.DramAccesses},
		{"sim.dram_row_conflicts", c.DramRowConflicts},
		{"sim.ctx_switches", c.CtxSwitches},
	}
}

// digestCounts hashes a sequence of per-run counters in order.
func digestCounts(cs []simCounts) string {
	h := sha256.New()
	for _, c := range cs {
		fmt.Fprintf(h, "%+v\n", c)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])[:16]
}

// heapSampler tracks the peak Go heap in use (live objects and dead
// ones not yet swept) by reading it every millisecond until finish.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

// startHeapSampler allocates only before it starts timing, so that the
// op's allocation counts do not depend on how often it sampled.
func startHeapSampler() *heapSampler {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: read()}
	t := time.NewTicker(time.Millisecond)
	go func() {
		defer close(s.done)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.peak = max(s.peak, read())
				return
			case <-t.C:
				s.peak = max(s.peak, read())
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the peak.
func (s *heapSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// memMark holds the cumulative allocation counters.
type memMark struct{ bytes, mallocs uint64 }

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{bytes: ms.TotalAlloc, mallocs: ms.Mallocs}
}

func (a memMark) since(b memMark) memMark {
	return memMark{bytes: a.bytes - b.bytes, mallocs: a.mallocs - b.mallocs}
}
