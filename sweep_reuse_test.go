package virtuoso_test

// Differential determinism harness for the sweep-scale reuse
// machinery: per-worker System pooling (recycled page-table arenas,
// cache SoA arrays, free-page bitmaps, trace read buffers) and the
// content-addressed point-result cache must both be invisible in the
// results. Three grids (38 points) run fresh (Sweep.NoReuse), pooled,
// and cache-answered, and all three reports of each must match byte
// for byte under Report.CanonicalJSON: catalog grids spanning every
// built-in page-table design (nested translation's hypervisor kernel
// included), policies, modes, and a multiprogrammed mix, so pooled
// workers rebuild systems of different shapes back to back; and a
// trace-replay grid, so pooled workers stream point after point
// through one set of read buffers.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	virtuoso "repro"
	"repro/internal/sweepjob"
)

// reuseSweep is the catalog equivalence grid: (BFS, RND, BFS+RND mix)
// × (radix, ech, nested) × (thp, bd) = 18 points, with the radix/bd
// single-workload points flipped to emulation mode by the Configure
// hook so mode changes are part of the shapes a pooled worker cycles
// through.
func reuseSweep() *virtuoso.Sweep {
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 100_000
	return &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"BFS", "RND"},
		Mixes:     [][]string{{"BFS", "RND"}},
		Designs:   []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignECH, virtuoso.DesignNested},
		Policies:  []virtuoso.PolicyName{virtuoso.PolicyTHP, virtuoso.PolicyBuddy},
		Seeds:     []uint64{1},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Parallel:  4,
		Configure: func(cfg *virtuoso.Config, p virtuoso.Point) error {
			if p.Mix == nil && p.Design == virtuoso.DesignRadix && p.Policy == virtuoso.PolicyBuddy {
				cfg.Mode = virtuoso.Emulation
			}
			return nil
		},
	}
}

// reuseHashedSweep is the catalog grid over the global hashed tables:
// (BFS, RND) × (hdc, ht) × (thp, bd) = 8 points. It has no mix: each
// process of a mix sizes its own global table from physical memory, and
// the second one finds no contiguous region left for it.
func reuseHashedSweep() *virtuoso.Sweep {
	sw := reuseSweep()
	sw.Mixes = nil
	sw.Designs = []virtuoso.DesignName{virtuoso.DesignHDC, virtuoso.DesignHT}
	return sw
}

// reuseMixSweep is the multiprogrammed grid: a BFS+RND mix × (radix,
// ht) × (thp, bd) = 4 points, so a pooled worker recycles a kernel
// with two processes' page tables and resident bookkeeping into the
// next point. Physical memory is left unfragmented: the second process
// of an HT mix builds its global table after fragmentation and needs a
// contiguous region for it.
func reuseMixSweep() *virtuoso.Sweep {
	sw := reuseSweep()
	sw.Base.FragFree2M = -1
	sw.Workloads = nil
	sw.Designs = []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignHT}
	sw.Configure = nil
	return sw
}

// reuseTraceSweep is the trace-replay equivalence grid over the v2
// trace at path: (radix, ech, ht) × (thp, bd) × seeds (1, 2) = 12
// points on two workers. Seed-1 points stop at their instruction bound,
// so the engine closes their source mid-stream; seed-2 points replay
// the whole trace and close it at end of stream. Both paths park the
// read buffers for the worker's next point.
func reuseTraceSweep(path string) *virtuoso.Sweep {
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 100_000
	return &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"BFS"},
		Designs:   []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignECH, virtuoso.DesignHT},
		Policies:  []virtuoso.PolicyName{virtuoso.PolicyTHP, virtuoso.PolicyBuddy},
		Seeds:     []uint64{1, 2},
		Parallel:  2,
		WorkloadFactory: func(virtuoso.Point) (*virtuoso.Workload, error) {
			return virtuoso.TraceWorkload(path)
		},
		Configure: func(cfg *virtuoso.Config, p virtuoso.Point) error {
			cfg.TracePath = path
			cfg.Frontend = virtuoso.FrontendTrace
			if p.Seed == 2 {
				cfg.MaxAppInsts = 0
			}
			return nil
		},
	}
}

func canonicalReport(t *testing.T, rep *virtuoso.Report) []byte {
	t.Helper()
	data, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSweepReuseEquivalence(t *testing.T) {
	t.Run("catalog", func(t *testing.T) { checkReuseEquivalence(t, reuseSweep, 18) })
	t.Run("hashed", func(t *testing.T) { checkReuseEquivalence(t, reuseHashedSweep, 8) })
	t.Run("mix", func(t *testing.T) { checkReuseEquivalence(t, reuseMixSweep, 4) })
	t.Run("trace", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bfs.trc")
		rec, err := virtuoso.Open(append(traceTestOpts(),
			virtuoso.WithWorkloadScale(0.05),
			virtuoso.WithWorkload("BFS"),
		)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, info, err := rec.Record(path); err != nil {
			t.Fatal(err)
		} else if info.Version != 2 {
			t.Fatalf("recorded trace is v%d, want v2", info.Version)
		}
		checkReuseEquivalence(t, func() *virtuoso.Sweep { return reuseTraceSweep(path) }, 12)
	})
}

// checkReuseEquivalence runs the grid mk builds fresh, pooled and
// cache-answered, and requires the three canonical reports to match.
func checkReuseEquivalence(t *testing.T, mk func() *virtuoso.Sweep, points int) {
	t.Helper()
	// Reference: every point built from fresh allocations, as the
	// runner always worked before pooling existed.
	fresh := mk()
	fresh.NoReuse = true
	freshRep, err := fresh.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(freshRep.Results) != points || freshRep.Executed != points {
		t.Fatalf("fresh run: %d results, %d executed, want %d/%d",
			len(freshRep.Results), freshRep.Executed, points, points)
	}

	// Pooled: the default path. Workers recycle each finished system's
	// allocations into the next point, across the grid's mixed shapes.
	// This run also warms the result cache.
	cacheDir := t.TempDir()
	pooled := mk()
	pooled.Cache = cacheDir
	pooledRep, err := pooled.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pooledRep.Executed != points || pooledRep.FromCache != 0 {
		t.Fatalf("pooled run: executed %d, from cache %d, want %d/0",
			pooledRep.Executed, pooledRep.FromCache, points)
	}

	// Cached: the same grid against the warm cache must simulate
	// nothing and still produce the identical report.
	cached := mk()
	cached.Cache = cacheDir
	cachedRep, err := cached.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cachedRep.Executed != 0 || cachedRep.FromCache != points {
		t.Fatalf("cached run: executed %d, from cache %d, want 0/%d",
			cachedRep.Executed, cachedRep.FromCache, points)
	}

	freshJSON := canonicalReport(t, freshRep)
	pooledJSON := canonicalReport(t, pooledRep)
	cachedJSON := canonicalReport(t, cachedRep)
	if !bytes.Equal(pooledJSON, freshJSON) {
		diffReports(t, pooledJSON, freshJSON)
	}
	if !bytes.Equal(cachedJSON, freshJSON) {
		diffReports(t, cachedJSON, freshJSON)
	}
}

// TestSweepCacheSharedAcrossGrids pins the content-addressing: a cache
// entry is keyed by what the point computes, not where it sits in a
// grid, so a different grid containing the same point hits the entry —
// with the Result's Index rewritten to the new grid's position.
func TestSweepCacheSharedAcrossGrids(t *testing.T) {
	cacheDir := t.TempDir()
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 100_000

	warm := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"RND"},
		Seeds:     []uint64{7},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Cache:     cacheDir,
	}
	warmRep, err := warm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warmRep.Executed != 1 {
		t.Fatalf("warm run executed %d points, want 1", warmRep.Executed)
	}

	// A wider grid whose second point is the warmed one.
	wide := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"BFS", "RND"},
		Seeds:     []uint64{7},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Cache:     cacheDir,
	}
	wideRep, err := wide.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wideRep.Executed != 1 || wideRep.FromCache != 1 {
		t.Fatalf("wide run: executed %d, from cache %d, want 1/1", wideRep.Executed, wideRep.FromCache)
	}
	if got := wideRep.Results[1]; got.Index != 1 || got.Workload != "RND" {
		t.Fatalf("cached point landed at index %d workload %s, want 1/RND", got.Index, got.Workload)
	}
	if canonical(t, warmRep.Results[0]) != canonical(t, func() virtuoso.Result {
		r := wideRep.Results[1]
		r.Index = 0
		return r
	}()) {
		t.Fatal("cache-restored result differs from the originally simulated one")
	}
}

// TestSweepPointKeyNamesWrittenEntry pins PointKey to Run: for every
// point of a cached sweep, the key PointKey reports names an entry Run
// actually wrote, holding that point's result. The Configure hook
// changes each point's config, so a key resolved without it would name
// no entry.
func TestSweepPointKeyNamesWrittenEntry(t *testing.T) {
	cacheDir := t.TempDir()
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 60_000
	s := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"RND"},
		Seeds:     []uint64{1, 2},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Cache:     cacheDir,
		Configure: func(cfg *virtuoso.Config, p virtuoso.Point) error {
			cfg.MaxAppInsts += p.Seed * 1000
			return nil
		},
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cache, err := sweepjob.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("sweep has %d points, want 2", len(pts))
	}
	for _, p := range pts {
		key, err := s.PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		raw, ok := cache.Get(key)
		if !ok {
			t.Fatalf("point %d: PointKey %s names no cache entry", p.Index, key)
		}
		var r virtuoso.Result
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.Seed != p.Seed || r.Workload != p.Workload {
			t.Fatalf("point %d: entry %s holds %s seed %d, want %s seed %d", p.Index, key, r.Workload, r.Seed, p.Workload, p.Seed)
		}
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(pts) {
		t.Fatalf("cache holds %d entries, want %d", len(entries), len(pts))
	}
}
