package mimicos

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/recycle"
)

// TestKhugepagedCrossProcessAttribution drives the collapse daemon on
// one process's fault clock against a candidate region owned by another
// process: the promotion must happen (khugepaged walks every mm, not
// just the faulting one) and must be attributed to the owning PID.
func TestKhugepagedCrossProcessAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhysBytes = 512 * mem.MB
	k := New(cfg, nil)
	k.SetPolicy(&BuddyPolicy{})
	p1 := newProc(t, k, 1)
	p2 := newProc(t, k, 2)

	// Fill one whole 2MB region of process 2 with 4K pages (buddy policy
	// never allocates huge pages, so every PTE is collapse-eligible).
	base := k.Mmap(2, 4*mem.MB, MmapFlags{Anon: true})
	for i := 0; i < 512; i++ {
		if out := k.HandlePageFault(2, base+mem.VAddr(i*4096), true, 0); !out.OK {
			t.Fatalf("fault %d failed", i)
		}
	}
	vma := k.VMAOf(2, base)
	if vma == nil {
		t.Fatal("no VMA for the faulted region")
	}
	k.khuge.noteCandidate(2, vma, base)

	// Scan on process 1's clock (tryCollapse charges work to the current
	// stream, exactly as a fault-driven scan would).
	k.Tracer.Begin()
	k.khuge.scan(k.Tracer)

	if k.Stats().Collapses != 1 {
		t.Fatalf("global collapses = %d, want 1", k.Stats().Collapses)
	}
	if p2.Stat.Collapses != 1 {
		t.Errorf("owner (pid 2) credited %d collapses, want 1", p2.Stat.Collapses)
	}
	if p1.Stat.Collapses != 0 {
		t.Errorf("scanning process (pid 1) wrongly credited %d collapses", p1.Stat.Collapses)
	}
	// The region is now a single huge mapping of process 2.
	e, ok := p2.PT.Lookup(base)
	if !ok || !e.Present || e.Size != mem.Page2M {
		t.Fatalf("region not promoted: ok=%v entry=%+v", ok, e)
	}
}

// TestExitDropsKhugeCandidates ensures an exiting process's queued
// collapse candidates disappear with it instead of being scanned
// against a reaped mm.
func TestExitDropsKhugeCandidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhysBytes = 256 * mem.MB
	k := New(cfg, nil)
	k.SetPolicy(&BuddyPolicy{})
	k.CreateProcess(1)
	base := k.Mmap(1, 4*mem.MB, MmapFlags{Anon: true})
	if out := k.HandlePageFault(1, base, true, 0); !out.OK {
		t.Fatal("fault failed")
	}
	k.khuge.noteCandidate(1, k.VMAOf(1, base), base)
	k.ExitProcess(1)
	if n := len(k.khuge.queue); n != 0 {
		t.Fatalf("%d khugepaged candidates survive process exit", n)
	}
	k.Tracer.Begin()
	k.khuge.scan(k.Tracer) // must not panic on the reaped process
}

// TestExitFreesSwapSlots ensures a process exiting with pages still
// swapped out returns their slots to the shared swap file: in a
// multiprogrammed system leaked slots would starve the survivors.
func TestExitFreesSwapSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhysBytes = 64 * mem.MB
	cfg.SwapBytes = 64 * mem.MB
	cfg.KhugeEveryNFaults = 0
	k := New(cfg, nil)
	k.SetPolicy(&BuddyPolicy{})
	p := newProc(t, k, 1)

	// Touch more pages than physical memory holds so reclaim swaps.
	foot := uint64(70 * mem.MB)
	base := k.Mmap(1, foot, MmapFlags{Anon: true})
	for off := uint64(0); off < foot; off += 4096 {
		if out := k.HandlePageFault(1, base+mem.VAddr(off), true, 0); !out.OK {
			t.Fatalf("fault at %#x failed", off)
		}
	}
	if k.Stats().SwapOuts == 0 {
		t.Fatal("pressure produced no swap-outs; test setup broken")
	}
	if len(p.swapSlots) == 0 {
		t.Fatal("no tracked swap slots despite swap-outs")
	}
	k.ExitProcess(1)
	if k.swap.used != 0 {
		t.Fatalf("%d swap slots leaked after exit", k.swap.used)
	}
}

// TestASIDRecycling checks the create→exit→create cycle reuses ASIDs.
func TestASIDRecycling(t *testing.T) {
	k := New(DefaultConfig(), nil)
	a := newProc(t, k, 1).ASID
	b := newProc(t, k, 2).ASID
	if a == b {
		t.Fatalf("duplicate live ASIDs %d", a)
	}
	var notified []uint16
	k.SetExitNotifier(func(pid int, asid uint16) { notified = append(notified, asid) })
	k.ExitProcess(1)
	if len(notified) != 1 || notified[0] != a {
		t.Fatalf("exit notifier saw %v, want [%d]", notified, a)
	}
	if got := newProc(t, k, 3).ASID; got != a {
		t.Fatalf("ASID %d not recycled (got %d)", a, got)
	}
	if k.Stats().Exits != 1 {
		t.Fatalf("exit count %d, want 1", k.Stats().Exits)
	}
}

// TestRecycleHarvestsExitedProcesses checks that a pooled kernel hands
// the page tables and resident bookkeeping of exited processes to the
// pool in Recycle, as it does for live ones, and not before: at exit
// the design state may still read the table.
func TestRecycleHarvestsExitedProcesses(t *testing.T) {
	for _, tc := range []struct {
		kind     PTKind
		chunkKey string // the table's arena chunk key
	}{
		{PTRadix, "pagetable.radix.entchunk"},
		{PTHT, "pagetable.ht.nodechunk"},
		{PTHDC, "pagetable.hdc.clusterchunk"},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			pool := recycle.New()
			cfg := DefaultConfig()
			cfg.PhysBytes = 256 * mem.MB
			cfg.PTKind = tc.kind
			k := NewWith(cfg, nil, pool)
			count := func(key string) int {
				n := 0
				for {
					if _, ok := pool.Take(key); !ok {
						return n
					}
					n++
				}
			}
			var vas [3]mem.VAddr
			for pid := 1; pid <= 3; pid++ {
				k.CreateProcess(pid)
				vas[pid-1] = k.Mmap(pid, 256*mem.KB, MmapFlags{Anon: true})
				for off := uint64(0); off < 256*mem.KB; off += 4 * mem.KB {
					if out := k.HandlePageFault(pid, vas[pid-1]+mem.VAddr(off), true, 0); !out.OK {
						t.Fatalf("pid %d: fault at +%#x failed", pid, off)
					}
				}
			}
			p1 := k.Process(1)
			k.ExitProcess(1)
			k.ExitProcess(2)
			if n := count(residentChunkKey) + count(residentIdxKey) + count(tc.chunkKey); n != 0 {
				t.Fatalf("exit gave %d objects to the pool; want none before Recycle", n)
			}
			if w := p1.PT.Walk(vas[0]); w.Found || p1.PT.MappedPages() != 0 {
				t.Fatalf("exited process's table: walk found %v, %d pages mapped; want an empty, readable table",
					w.Found, p1.PT.MappedPages())
			}
			k.Recycle(pool)
			if got := count(residentChunkKey); got != 3 {
				t.Errorf("pool holds %d resident chunks after Recycle, want 3 (two exited processes, one live)", got)
			}
			if got := count(residentIdxKey); got != 3 {
				t.Errorf("pool holds %d resident index maps after Recycle, want 3", got)
			}
			if got := count(tc.chunkKey); got < 3 {
				t.Errorf("pool holds %d %s chunks after Recycle, want at least 3", got, tc.chunkKey)
			}
		})
	}
}
