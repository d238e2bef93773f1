package core

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/phys"
	"repro/internal/tier"
	"repro/internal/workloads"
)

// touch is an anonymous workload that writes every 4K page of a
// foot-byte mapping in the given number of passes. With a footprint
// above physical memory the first pass swaps (or demotes) pages and
// the second faults them back in.
func touch(name string, foot uint64, passes int) *workloads.Workload {
	return workloads.Custom(name, workloads.LongRunning, foot,
		func(w *workloads.Workload, k *mimicos.Kernel, pid int) {
			w.SetBase("d", k.Mmap(pid, foot, mimicos.MmapFlags{Anon: true}))
		},
		func(w *workloads.Workload) []workloads.Step {
			pass := workloads.Step{Kind: workloads.StepTouch, Base: w.Base("d"), Size: foot, Stride: 4096, ALUPer: 2, PC: 0xC00100}
			steps := make([]workloads.Step, passes)
			for i := range steps {
				steps[i] = pass
			}
			return steps
		})
}

// holdHugeBlocks allocates every free 2MB block of m, then hands back
// the odd 4K pages of 16 of them, so 4K allocations succeed while no
// 2MB block is free. It returns the blocks still held.
func holdHugeBlocks(m *phys.Mem) []mem.PAddr {
	var held []mem.PAddr
	for {
		pa, ok := m.Alloc2M()
		if !ok {
			break
		}
		held = append(held, pa)
	}
	for _, blk := range held[len(held)-16:] {
		for pg := 1; pg < 512; pg += 2 {
			m.Free(blk+mem.PAddr(pg*4096), 1)
		}
	}
	return held[:len(held)-16]
}

// slowTiers is a CXL tier over an NVM tier, small enough that demotions
// cascade into swap.
var slowTiers = []tier.Spec{
	{Name: "cxl", Bytes: 4 * mem.MB, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
	{Name: "nvm", Bytes: 8 * mem.MB, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
}

// undersized is a 32 MB machine whose reclaim watermark (a used
// fraction of 1) is never crossed after a fault, so memory runs out
// and every reclaim is the out-of-memory retry inside a fault.
func undersized(c *Config) {
	c.OSCfg.PhysBytes = 32 * mem.MB
	c.OSCfg.SwapThreshold = 1
	c.MaxAppInsts = 0
}

// rangeDiffCase is one kernel path of the differential test: mut
// configures the system, run drives it, and took reports whether the
// path actually ran.
type rangeDiffCase struct {
	name string
	mut  func(*Config)
	run  func(t *testing.T, s *System)
	took func(s *System) bool
}

func runOne(w *workloads.Workload) func(*testing.T, *System) {
	return func(_ *testing.T, s *System) { s.Run(w) }
}

func rangeDiffCases() []rangeDiffCase {
	tiny := workloads.Params{Scale: 0.05}
	os := func(s *System) *mimicos.Stats { return s.OS.Stats() }
	return []rangeDiffCase{{
		name: "4k-anon",
		mut:  func(c *Config) { c.Policy = PolicyBuddy },
		run:  func(t *testing.T, s *System) { s.Run(byName(t, "BFS", tiny)) },
		took: func(s *System) bool { return os(s).FaultsBySize[mem.Page4K] > 0 },
	}, {
		name: "2m-thp",
		mut:  func(c *Config) { c.Policy = PolicyTHP; c.FragFree2M = -1 },
		run:  func(t *testing.T, s *System) { s.Run(byName(t, "XS", tiny)) },
		took: func(s *System) bool { return os(s).THPDirectZero > 0 },
	}, {
		name: "swap-out-in",
		mut: func(c *Config) {
			c.Policy = PolicyBuddy
			c.OSCfg.PhysBytes = 32 * mem.MB
			c.MaxAppInsts = 0
		},
		run:  runOne(touch("swap", 40*mem.MB, 2)),
		took: func(s *System) bool { return os(s).SwapOuts > 0 && os(s).SwapIns > 0 },
	}, {
		name: "khugepaged-collapse",
		mut: func(c *Config) {
			c.Policy = PolicyTHP
			c.FragFree2M = -1
			c.OSCfg.KhugeEveryNFaults = 64
			c.OSCfg.SwapThreshold = 0.995 // held blocks must not trigger reclaim
			c.MaxAppInsts = 0
		},
		run: func(t *testing.T, s *System) {
			// Hold every 2MB block so the region falls back to 4K pages
			// and becomes a collapse candidate; release them once 100
			// pages are in, so a later scan finds a 2MB block to
			// collapse the region into.
			held := holdHugeBlocks(s.OS.Phys)
			w := touch("collapse", 2*mem.MB, 1)
			s.SetFrontendTap(func(in isa.Inst) {
				if held != nil && in.Op == isa.OpStore && in.Addr >= uint64(w.Base("d"))+100*4096 {
					for _, pa := range held {
						s.OS.Phys.Free(pa, 512)
					}
					held = nil
				}
			})
			s.Run(w)
		},
		took: func(s *System) bool { return os(s).Collapses > 0 },
	}, {
		name: "tier-promote-demote",
		mut: func(c *Config) {
			c.Policy = PolicyBuddy
			c.OSCfg.PhysBytes = 32 * mem.MB
			c.OSCfg.SwapThreshold = 0.5
			c.OSCfg.Tiers = slowTiers
			c.MaxAppInsts = 0
		},
		run:  runOne(touch("tier", 20*mem.MB, 2)),
		took: func(s *System) bool { return os(s).Demotions > 0 && os(s).Promotions > 0 },
	}, {
		name: "process-exit",
		mut:  func(c *Config) { c.Policy = PolicyTHP; c.MaxAppInsts = 100_000 },
		run: func(t *testing.T, s *System) {
			if _, err := s.RunMulti([]*workloads.Workload{byName(t, "BFS", tiny), byName(t, "XS", tiny)}); err != nil {
				t.Fatal(err)
			}
		},
		took: func(s *System) bool { return s.OS.Process(1) == nil && s.OS.Process(2) == nil },
	}, {
		name: "nested-host-fault",
		mut:  func(c *Config) { c.Design = DesignNested; c.OSCfg.PhysBytes = 256 * mem.MB },
		run:  func(t *testing.T, s *System) { s.Run(byName(t, "BFS", tiny)) },
		took: func(s *System) bool { return s.hostFaults > 0 },
	}, {
		name: "oom-retry-flat",
		// No free 2MB block: every THP fault falls back to a buddy 4K page.
		mut: func(c *Config) { undersized(c); c.Policy = PolicyTHP; c.FragFree2M = 0 },
		run: runOne(touch("oom", 40*mem.MB, 1)),
		took: func(s *System) bool {
			st := os(s)
			return st.ReclaimRuns > 0 && st.THPFallback4K > 0 && st.SwapOuts > 0 && st.SegvFaults == 0
		},
	}, {
		name: "oom-retry-tiered",
		mut:  func(c *Config) { undersized(c); c.Policy = PolicyBuddy; c.OSCfg.Tiers = slowTiers },
		run:  runOne(touch("oom", 40*mem.MB, 1)),
		took: func(s *System) bool {
			st := os(s)
			return st.ReclaimRuns > 0 && st.Demotions > 0 && st.SegvFaults == 0
		},
	}}
}

// executed digests the kernel instructions a core ran, in order: the
// one place a PC error shows when it moves no fetch across a line.
type executed struct {
	n, hash uint64
}

func (e *executed) add(in isa.Inst) {
	e.n++
	phys := uint64(0)
	if in.Phys {
		phys = 1
	}
	for _, v := range [...]uint64{uint64(in.Op), phys, in.N(), in.PC, in.Addr} {
		e.hash = (e.hash ^ v) * 1099511628211
	}
}

// volume is the stream channel's accounting without PeakRecords, the
// one figure range records are meant to change.
func volume(c *StreamChannel) StreamChannel {
	v := *c
	v.PeakRecords = 0
	return v
}

// TestRangeStreamsMatchExpansion is the differential test of range
// records: every kernel path runs on two identically built systems,
// one injecting MimicOS streams as recorded (zeroing and copying as
// range records) and one injecting their per-line expansion
// (isa.Stream.Expand). Both cores must execute the same kernel
// instructions, and the core, MMU, every cache level, DRAM, the stream
// channel and the kernel must end in the same state.
func TestRangeStreamsMatchExpansion(t *testing.T) {
	for _, tc := range rangeDiffCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, want := smallSystem(t, tc.mut), smallSystem(t, tc.mut)
			want.expandStreams = true
			var gotRun, wantRun executed
			got.Core.SetKernelTap(gotRun.add)
			want.Core.SetKernelTap(wantRun.add)
			tc.run(t, got)
			tc.run(t, want)
			if !tc.took(got) {
				t.Fatalf("path not exercised: kernel stats %+v", *got.OS.Stats())
			}
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"executed kernel instructions", gotRun, wantRun},
				{"cpu", *got.Core.Stats(), *want.Core.Stats()},
				{"mmu", *got.MMU.Stats(), *want.MMU.Stats()},
				{"L1I", *got.Hier.L1I.Stats(), *want.Hier.L1I.Stats()},
				{"L1D", *got.Hier.L1D.Stats(), *want.Hier.L1D.Stats()},
				{"L2", *got.Hier.L2.Stats(), *want.Hier.L2.Stats()},
				{"L3", *got.Hier.L3.Stats(), *want.Hier.L3.Stats()},
				{"dram", *got.Dram.Stats(), *want.Dram.Stats()},
				{"stream channel", volume(got.StreamChan), volume(want.StreamChan)},
				{"kernel", *got.OS.Stats(), *want.OS.Stats()},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s stats differ:\nrange    %+v\nexpanded %+v", c.what, c.got, c.want)
				}
			}
			if got.StreamChan.Insts == 0 || got.StreamChan.PeakRecords >= want.StreamChan.PeakRecords {
				t.Errorf("range records unused: largest event %d records, expanded %d", got.StreamChan.PeakRecords, want.StreamChan.PeakRecords)
			}
		})
	}
}
