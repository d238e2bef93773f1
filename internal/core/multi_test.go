package core

import (
	"encoding/json"
	"testing"

	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/workloads"
)

// mixFor builds the catalog workloads of a mix with explicit params.
func mixFor(t testing.TB, p workloads.Params, names ...string) []*workloads.Workload {
	t.Helper()
	ws := make([]*workloads.Workload, len(names))
	for i, n := range names {
		ws[i] = byName(t, n, p)
	}
	return ws
}

func TestRunMultiCompletesMix(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}
	s := smallSystem(t, func(c *Config) { c.MaxAppInsts = 150_000 })
	mm, err := s.RunMulti(mixFor(t, tiny, "RND", "SEQ"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mm.Procs); got != 2 {
		t.Fatalf("got %d process results, want 2", got)
	}
	if mm.Aggregate.Workload != "RND+SEQ" {
		t.Errorf("aggregate workload = %q, want RND+SEQ", mm.Aggregate.Workload)
	}
	if mm.ContextSwitches == 0 {
		t.Error("no context switches in a 2-process run")
	}
	if mm.Aggregate.CtxSwitchCycles == 0 {
		t.Error("context switches charged no cycles")
	}
	var appSum uint64
	for _, pm := range mm.Procs {
		if !pm.Finished {
			t.Errorf("process %d (%s) did not finish", pm.PID, pm.Workload)
		}
		if pm.AppInsts == 0 || pm.Cycles == 0 || pm.Slices == 0 {
			t.Errorf("process %d: empty accounting %+v", pm.PID, pm)
		}
		if pm.OS.MinorFaults == 0 {
			t.Errorf("process %d: no attributed minor faults", pm.PID)
		}
		if pm.OS.SegvFaults != 0 {
			t.Errorf("process %d: %d segvs", pm.PID, pm.OS.SegvFaults)
		}
		appSum += pm.AppInsts
	}
	if appSum != mm.Aggregate.AppInsts {
		t.Errorf("per-process AppInsts sum %d != aggregate %d", appSum, mm.Aggregate.AppInsts)
	}
	// Both processes exited: their ASIDs were recycled into the free
	// list and the kernel reaped them.
	if s.OS.Process(1) != nil || s.OS.Process(2) != nil {
		t.Error("exited processes not reaped")
	}
	if mm.Aggregate.OS.Exits != 2 {
		t.Errorf("kernel counted %d exits, want 2", mm.Aggregate.OS.Exits)
	}
}

// normaliseMulti zeroes the host-side fields before byte comparison.
func normaliseMulti(mm MultiMetrics) MultiMetrics {
	mm.Aggregate.WallTime = 0
	mm.Aggregate.SimHeapBytes = 0
	return mm
}

func TestRunMultiDeterminism(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}
	run := func() string {
		s := smallSystem(t, func(c *Config) {
			c.MaxAppInsts = 120_000
			c.QuantumCycles = 30_000
		})
		mm, err := s.RunMulti(mixFor(t, tiny, "RND", "SEQ"))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(normaliseMulti(mm))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical multi-process runs diverged:\n a: %s\n b: %s", a, b)
	}
}

// TestRunMultiMemoryPressure drives two processes whose combined
// footprint exceeds physical memory: both must experience swap-outs in
// their own per-process metrics, and per-process attribution must
// account for every global swap event.
func TestRunMultiMemoryPressure(t *testing.T) {
	hog := func(name string, foot uint64) *workloads.Workload {
		return workloads.Custom(name, workloads.LongRunning, foot,
			func(w *workloads.Workload, k *mimicos.Kernel, pid int) {
				w.SetBase("d", k.Mmap(pid, foot, mimicos.MmapFlags{Anon: true}))
			},
			func(w *workloads.Workload) []workloads.Step {
				return []workloads.Step{
					{Kind: workloads.StepTouch, Base: w.Base("d"), Size: foot, Stride: 4096, ALUPer: 2, PC: 0xC00100},
				}
			})
	}
	s := smallSystem(t, func(c *Config) {
		c.OSCfg.PhysBytes = 128 * mem.MB
		c.Policy = PolicyBuddy
		c.FragFree2M = -1 // no artificial fragmentation
		c.MaxAppInsts = 0 // run both touch phases to completion
	})
	mm, err := s.RunMulti([]*workloads.Workload{
		hog("hogA", 100*mem.MB), hog("hogB", 100*mem.MB),
	})
	if err != nil {
		t.Fatal(err)
	}
	var outSum, inSum uint64
	for _, pm := range mm.Procs {
		if pm.OS.SwapOuts == 0 {
			t.Errorf("process %d (%s): no swap-outs under combined pressure", pm.PID, pm.Workload)
		}
		outSum += pm.OS.SwapOuts
		inSum += pm.OS.SwapIns
	}
	if outSum != mm.Aggregate.OS.SwapOuts {
		t.Errorf("per-process swap-outs %d != aggregate %d", outSum, mm.Aggregate.OS.SwapOuts)
	}
	if inSum != mm.Aggregate.OS.SwapIns {
		t.Errorf("per-process swap-ins %d != aggregate %d", inSum, mm.Aggregate.OS.SwapIns)
	}
	if mm.Aggregate.OS.ReclaimRuns == 0 {
		t.Error("no reclaim runs despite over-capacity footprint")
	}
}

// TestRunMultiASIDRetention compares flush-on-switch against
// ASID-tagged retention on the same mix: retention must lose strictly
// fewer translations to context switches.
func TestRunMultiASIDRetention(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}
	run := func(retain bool) MultiMetrics {
		s := smallSystem(t, func(c *Config) {
			c.MaxAppInsts = 150_000
			c.QuantumCycles = 25_000
			c.ASIDRetention = retain
		})
		mm, err := s.RunMulti(mixFor(t, tiny, "RND", "SEQ"))
		if err != nil {
			t.Fatal(err)
		}
		return mm
	}
	flush, retain := run(false), run(true)
	if flush.TLBFlushes == 0 {
		t.Error("flush mode recorded no TLB flushes")
	}
	if retain.TLBFlushes != 0 {
		t.Errorf("retention mode flushed %d times", retain.TLBFlushes)
	}
	if retain.Aggregate.L2TLBMisses >= flush.Aggregate.L2TLBMisses {
		t.Errorf("ASID retention did not reduce L2 TLB misses: retain=%d flush=%d",
			retain.Aggregate.L2TLBMisses, flush.Aggregate.L2TLBMisses)
	}
	t.Logf("L2 TLB misses: flush=%d retain=%d (%d switches)",
		flush.Aggregate.L2TLBMisses, retain.Aggregate.L2TLBMisses, flush.ContextSwitches)
}

// TestASIDRecycleNoStaleTLB is the process-exit regression test: after
// an exit the whole hierarchy must hold zero entries for the dead ASID,
// and a new process recycling that ASID must not hit them.
func TestASIDRecycleNoStaleTLB(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}
	s := smallSystem(t, nil)
	src := s.Prepare(byName(t, "2D-Sum", tiny))
	s.RunSteps(src, 50_000)

	asid := s.Proc.ASID
	if n := s.MMU.STLB().OccupancyASID(asid); n == 0 {
		t.Fatal("run populated no STLB entries for the process ASID")
	}
	s.OS.ExitProcess(1)
	if n := s.MMU.STLB().OccupancyASID(asid); n != 0 {
		t.Fatalf("%d stale STLB entries survive process exit", n)
	}
	p2, err := s.OS.CreateProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ASID != asid {
		t.Fatalf("ASID not recycled: got %d, want %d", p2.ASID, asid)
	}
	// A fresh lookup under the recycled ASID must miss, not hit the dead
	// process's translation.
	if _, hit := s.MMU.STLB().Lookup(TextSegBase, p2.ASID); hit {
		t.Fatal("recycled ASID hit a stale translation")
	}
}

// TestRunMultiMidgardExitReleasesFrames guards the exit path for
// designs whose page table is keyed by a translation key rather than
// the virtual address: teardown must remove entries by that key, or
// every frame of an exiting process leaks into the shared allocator.
func TestRunMultiMidgardExitReleasesFrames(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}
	s := smallSystem(t, func(c *Config) {
		c.Design = DesignMidgard
		c.MaxAppInsts = 80_000
	})
	mm, err := s.RunMulti(mixFor(t, tiny, "RND", "SEQ"))
	if err != nil {
		t.Fatal(err)
	}
	if mm.Aggregate.MinorFaults == 0 {
		t.Fatal("no faults; nothing was resident")
	}
	for _, p := range s.Processes() {
		if !p.Finished() {
			t.Errorf("process %d did not finish", p.PID)
		}
		if p.OS.RSS != 0 {
			t.Errorf("process %d leaked %d resident bytes at exit", p.PID, p.OS.RSS)
		}
	}
}

func TestRunMultiRejectsUtopia(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}
	s := smallSystem(t, func(c *Config) {
		c.Design = DesignUtopia
		c.Policy = PolicyUtopia
	})
	if _, err := s.RunMulti(mixFor(t, tiny, "RND", "SEQ")); err == nil {
		t.Fatal("RunMulti accepted the utopia design")
	}
}
