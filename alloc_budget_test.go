//go:build !race

package virtuoso_test

import (
	"path/filepath"
	"runtime"
	"testing"

	virtuoso "repro"
	"repro/internal/core"
	"repro/internal/recycle"
)

// Host allocation budget of one warm pass over three replay points (an
// ech/bd, an ht/thp and an ht/bd point of a 100k-instruction BFS
// replay), about 1.25× what the pass allocates: 184 KB in ~550
// allocations on Go 1.24 linux/amd64. A sweep point should allocate
// only the host memory it uses: ECH records, ECH slot pages, HT groups
// and bucket heads, resident lists and their index from the worker's
// pool, a small buffer for header-only opens, and the worker's parked
// read buffers for the streaming open. Unpooled ECH slot pages of
// 32-byte records took the pass to 556 KB, building the HT and resident
// state fresh for every point to 952 KB; a dense slot array per ECH
// generation and eagerly allocated ECH slots cost more still.
const (
	replayPassBytesBudget   = 230_000
	replayPassMallocsBudget = 700
)

// TestReplayPointAllocBudget runs the replay points the way a sweep
// worker does — one recycle.Pool, NewSystemPooled, TraceWorkload, Run,
// Recycle — twice, and holds the second, warm pass to the budget. The
// counts are host-independent. The race detector allocates on its own
// account, so the test is not built under -race.
func TestReplayPointAllocBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.trc")
	rec, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("BFS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Record(path); err != nil {
		t.Fatal(err)
	}
	base := rec.Config()
	base.MaxAppInsts = 100_000
	base.TracePath = path
	base.Frontend = virtuoso.FrontendTrace

	pool := recycle.New()
	pass := func() {
		for _, p := range []struct {
			design virtuoso.DesignName
			policy virtuoso.PolicyName
		}{
			{virtuoso.DesignECH, virtuoso.PolicyBuddy},
			{virtuoso.DesignHT, virtuoso.PolicyTHP},
			{virtuoso.DesignHT, virtuoso.PolicyBuddy},
		} {
			cfg := base
			cfg.Design, cfg.Policy = p.design, p.policy
			sys, err := core.NewSystemPooled(cfg, pool)
			if err != nil {
				t.Fatal(err)
			}
			w, err := virtuoso.TraceWorkload(path)
			if err != nil {
				t.Fatal(err)
			}
			if m := sys.Run(w); m.AppInsts == 0 {
				t.Fatalf("%s/%s replayed no instructions", p.design, p.policy)
			}
			sys.Recycle(pool)
		}
	}

	pass() // warm the pool
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("warm pass: %d bytes in %d allocations", bytes, mallocs)
	if bytes > replayPassBytesBudget {
		t.Errorf("warm pass allocated %d bytes, budget %d", bytes, replayPassBytesBudget)
	}
	if mallocs > replayPassMallocsBudget {
		t.Errorf("warm pass made %d allocations, budget %d", mallocs, replayPassMallocsBudget)
	}
}

// Host allocation budget of one os-pressure-style mix (four processes
// at workload scale 0.02, 400k instructions each, on 10 MB of DRAM over
// 2 MB CXL and 4 MB NVM tiers that cascade into swap), about 1.15× what
// the run allocates: 4.18 MB on Go 1.24 linux/amd64 (1.25× would let
// the 4.92 MB of full radix nodes below through). The run makes
// ~35k faults, ~33k demotions and ~26k promotions, each of which adds a
// resident-list entry, and most a latency sample. Radix nodes that each
// carried both a children and a leaf array took the run to 4.92 MB;
// lists grown by append's ~1.25× steps re-copied themselves on the way
// and took it to 9.90 MB.
const pressureMixBytesBudget = 4_800_000

// TestPressureAllocBudget holds one multiprogrammed run under memory
// pressure to its host allocation budget. Every fault, demotion and
// promotion adds a resident-list entry and a latency sample, so lists
// that re-copy themselves as they grow show up here first. The mix
// runs twice and the second run is measured, after package-level pools
// are warm.
func TestPressureAllocBudget(t *testing.T) {
	cfg := virtuoso.ScaledConfig()
	cfg.Policy = virtuoso.PolicyBuddy
	cfg.MaxAppInsts = 400_000
	cfg.OSCfg.PhysBytes = 10 << 20
	cfg.OSCfg.SwapBytes = 512 << 20
	cfg.OSCfg.SwapThreshold = 0.5
	cfg.OSCfg.Tiers = []virtuoso.TierSpec{
		{Name: "cxl", Bytes: 2 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
		{Name: "nvm", Bytes: 4 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
	}
	run := func() virtuoso.MultiMetrics {
		sess, err := virtuoso.Open(virtuoso.WithConfig(cfg),
			virtuoso.WithWorkloadParams(virtuoso.WorkloadParams{Scale: 0.02}),
			virtuoso.WithProcesses("RND", "SEQ", "BFS", "XS"))
		if err != nil {
			t.Fatal(err)
		}
		mm, err := sess.RunMulti()
		if err != nil {
			t.Fatal(err)
		}
		return mm
	}

	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mm := run()
	runtime.ReadMemStats(&after)
	ev := mm.Aggregate.OS
	if ev.Demotions == 0 || ev.Promotions == 0 || ev.SwapOuts == 0 {
		t.Fatalf("mix under-pressured: demotions %d, promotions %d, swap-outs %d; all must be > 0",
			ev.Demotions, ev.Promotions, ev.SwapOuts)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("pressure mix: %d bytes in %d allocations (%d faults, %d demotions, %d promotions, %d swap-outs)",
		bytes, after.Mallocs-before.Mallocs, ev.MinorFaults+ev.MajorFaults, ev.Demotions, ev.Promotions, ev.SwapOuts)
	if bytes > pressureMixBytesBudget {
		t.Errorf("pressure mix allocated %d bytes, budget %d", bytes, pressureMixBytesBudget)
	}
}

// Malloc budget of one Open of an os-pressure-style mix (the four
// processes RND, SEQ, BFS and XS at workload scale 0.05 on 24 MB of DRAM
// over 4 MB CXL and 8 MB NVM tiers), about 1.25× what the Open makes:
// 117 allocations (98 KB) on Go 1.24 linux/amd64. A catalog lookup that
// built whole suites to find one name, once to check each name and once
// more to build the mix, took the Open to 591 allocations.
const openMallocsBudget = 146

// TestOpenAllocBudget holds one multiprogrammed Open to its malloc
// budget. Open checks each workload name and builds the mix once, so a
// name check or lookup that constructs workloads it does not keep
// shows up here. The Open repeats and the second is measured.
func TestOpenAllocBudget(t *testing.T) {
	cfg := virtuoso.ScaledConfig()
	cfg.Policy = virtuoso.PolicyBuddy
	cfg.OSCfg.PhysBytes = 24 << 20
	cfg.OSCfg.SwapBytes = 512 << 20
	cfg.OSCfg.SwapThreshold = 0.5
	cfg.OSCfg.Tiers = []virtuoso.TierSpec{
		{Name: "cxl", Bytes: 4 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
		{Name: "nvm", Bytes: 8 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
	}
	open := func() {
		if _, err := virtuoso.Open(virtuoso.WithConfig(cfg),
			virtuoso.WithWorkloadParams(virtuoso.WorkloadParams{Scale: 0.05}),
			virtuoso.WithProcesses("RND", "SEQ", "BFS", "XS")); err != nil {
			t.Fatal(err)
		}
	}

	open()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	open()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("open: %d bytes in %d allocations", after.TotalAlloc-before.TotalAlloc, mallocs)
	if mallocs > openMallocsBudget {
		t.Errorf("open made %d allocations, budget %d", mallocs, openMallocsBudget)
	}
}

// Host allocation budget of one exec-xs-style run (catalog XS at
// workload scale 0.1 on the scaled radix + THP machine, to completion),
// about 1.25× what the run allocates: 273 KB in 148 allocations on
// Go 1.24 linux/amd64. A Fragment that grew its candidate stacks by
// appends took the run to 296 KB in 167 allocations; physical memory
// that kept its free extents in two hash maps beside the free-page
// bitmap to 370 KB; radix nodes made 32 at a time, each carrying both a
// children and a leaf array, to 602 KB.
const (
	execRunBytesBudget   = 341_000
	execRunMallocsBudget = 185
)

// TestExecAllocBudget holds one execution-driven Open+Run to its host
// allocation budget. The session's setup (the phys bitmap, caches,
// TLBs, the page table) dominates, so a table that allocates for
// capacity it never maps shows up here. The run repeats and the second
// is measured.
func TestExecAllocBudget(t *testing.T) {
	cfg := virtuoso.ScaledConfig()
	cfg.Design = virtuoso.DesignRadix
	cfg.Policy = virtuoso.PolicyTHP
	run := func() virtuoso.Metrics {
		sess, err := virtuoso.Open(virtuoso.WithConfig(cfg),
			virtuoso.WithWorkloadParams(virtuoso.WorkloadParams{Scale: 0.1}),
			virtuoso.WithWorkload("XS"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := run()
	runtime.ReadMemStats(&after)
	if m.AppInsts == 0 || m.Segvs != 0 {
		t.Fatalf("exec run retired %d instructions with %d segvs", m.AppInsts, m.Segvs)
	}
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("exec run: %d bytes in %d allocations (%d app instructions)", bytes, mallocs, m.AppInsts)
	if bytes > execRunBytesBudget {
		t.Errorf("exec run allocated %d bytes, budget %d", bytes, execRunBytesBudget)
	}
	if mallocs > execRunMallocsBudget {
		t.Errorf("exec run made %d allocations, budget %d", mallocs, execRunMallocsBudget)
	}
}

// Host allocation budget of one CanonicalJSON call on a replay-grid
// shaped report (replayGridReport, 1.36 MB of output), about 1.25× what
// the call allocates after two GCs: 2.47 MB in ~220 allocations on
// Go 1.24 linux/amd64, of which 0.78 MB are the copies each latency
// series' MarshalJSON returns. The output buffer is sized exactly by a
// counting pass; json.MarshalIndent, which marshals compactly and then
// indents into a second buffer, took the call to 6.5 MB.
const (
	canonicalJSONBytesBudget   = 3_100_000
	canonicalJSONMallocsBudget = 280
)

// TestCanonicalJSONAllocBudget holds one CanonicalJSON of a 64-point
// report to its host allocation budget. Two GCs before the measured
// call empty the encoder's state pool, as perfbench's heap cleaning
// does, so the call pays for its own scratch buffers.
func TestCanonicalJSONAllocBudget(t *testing.T) {
	rep := replayGridReport()
	if _, err := rep.CanonicalJSON(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := rep.CanonicalJSON()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("CanonicalJSON: %d bytes in %d allocations for %d bytes of output", bytes, mallocs, len(out))
	if bytes > canonicalJSONBytesBudget {
		t.Errorf("CanonicalJSON allocated %d bytes, budget %d", bytes, canonicalJSONBytesBudget)
	}
	if mallocs > canonicalJSONMallocsBudget {
		t.Errorf("CanonicalJSON made %d allocations, budget %d", mallocs, canonicalJSONMallocsBudget)
	}
}
