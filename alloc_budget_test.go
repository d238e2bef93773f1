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

// Host allocation budget of one warm pass over two replay points (an
// ech/bd and an ht/thp point of a 100k-instruction BFS replay), about
// 1.25× what the pass allocates: 1.42 MB in ~400 allocations on Go 1.24
// linux/amd64. A sweep point should allocate only the host memory it
// uses: ECH slots when a generation is first inserted into, HT groups
// from chunks, a small buffer for header-only opens, and the worker's
// parked read buffers for the streaming open. Eagerly allocated ECH
// slots and per-open 64 KiB buffers took the pass to 3.54 MB.
const (
	replayPassBytesBudget   = 1_770_000
	replayPassMallocsBudget = 500
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
