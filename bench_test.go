// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced scale (one benchmark per experiment; the full
// versions run via cmd/figures). Reported custom metrics carry each
// experiment's headline numbers so `go test -bench` output documents the
// reproduced shapes. An ablation section exercises the design choices
// DESIGN.md calls out.
package virtuoso_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	virtuoso "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func benchOpts(b *testing.B) experiments.Opts {
	b.Helper()
	return experiments.Opts{Quick: true, Seed: 17}
}

// runExperiment runs one harness per benchmark iteration and reports the
// selected cells as benchmark metrics.
func runExperiment(b *testing.B, id string, report func(*experiments.Table, *testing.B)) {
	b.Helper()
	f, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = f(benchOpts(b))
	}
	if tb != nil && report != nil {
		report(tb, b)
	}
}

func cellOf(tb *experiments.Table, label string, col int) float64 {
	for _, r := range tb.Rows {
		if r.Label == label && col < len(r.Cells) {
			return r.Cells[col]
		}
	}
	return 0
}

func BenchmarkFig01TimeBreakdown(b *testing.B) {
	runExperiment(b, "fig01", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "MEAN-long", 0), "long-trans-%")
		b.ReportMetric(cellOf(tb, "MEAN-long", 1), "long-alloc-%")
		b.ReportMetric(cellOf(tb, "MEAN-short", 1), "short-alloc-%")
	})
}

func BenchmarkFig02MPFDistribution(b *testing.B) {
	runExperiment(b, "fig02", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "THP-enabled", 5), "thp-outlier-%")
		b.ReportMetric(cellOf(tb, "THP-disabled", 5), "bd-outlier-%")
	})
}

func BenchmarkFig03PTWSweep(b *testing.B) {
	runExperiment(b, "fig03", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(tb.Rows[0].Cells[0], "ptw-low")
		b.ReportMetric(tb.Rows[len(tb.Rows)-1].Cells[0], "ptw-sssp")
	})
}

func BenchmarkFig08IPCAccuracy(b *testing.B) {
	runExperiment(b, "fig08", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "MEAN", 3), "acc-virtuoso-%")
		b.ReportMetric(cellOf(tb, "MEAN", 4), "acc-baseline-%")
	})
}

func BenchmarkFig09PFCosine(b *testing.B) {
	runExperiment(b, "fig09", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "MEAN", 0), "cosine")
	})
}

func BenchmarkFig10MMUAccuracy(b *testing.B) {
	runExperiment(b, "fig10", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "MEAN", 2), "mpki-acc-%")
		b.ReportMetric(cellOf(tb, "MEAN", 5), "ptw-acc-%")
	})
}

func BenchmarkFig11Overheads(b *testing.B) {
	runExperiment(b, "fig11", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "AVG(MimicOS)", 0), "avg-slowdown-%")
		b.ReportMetric(cellOf(tb, "gem5-FS vs gem5-SE", 0), "fs-slowdown-%")
	})
}

func BenchmarkFig12KernelFraction(b *testing.B) {
	runExperiment(b, "fig12", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(tb.Rows[0].Cells[1], "norm-time-densest")
	})
}

func BenchmarkFig13PTWReduction(b *testing.B) {
	runExperiment(b, "fig13", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "hdc", 0), "hdc-red-%")
		b.ReportMetric(cellOf(tb, "ht", len(tb.Columns)-1), "ht-red-%")
	})
}

func BenchmarkFig14RowConflicts(b *testing.B) {
	runExperiment(b, "fig14", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "GMEAN", 0), "ech-x")
		b.ReportMetric(cellOf(tb, "GMEAN", 1), "hdc-x")
	})
}

func BenchmarkFig15MPFReduction(b *testing.B) {
	runExperiment(b, "fig15", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "MEAN", 1), "hdc-red-%")
	})
}

func BenchmarkFig16LLMPolicies(b *testing.B) {
	runExperiment(b, "fig16", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "Bagel-2.8B BD", 3), "bd-max-ns")
		b.ReportMetric(cellOf(tb, "Bagel-2.8B AR-THP", 3), "arthp-max-ns")
	})
}

func BenchmarkFig17MidgardBreakdown(b *testing.B) {
	runExperiment(b, "fig17", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "BC", 0), "bc-frontend-%")
	})
}

func BenchmarkFig18VMACensus(b *testing.B) {
	runExperiment(b, "fig18", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "total VMAs", 0), "vmas")
	})
}

func BenchmarkFig19RestSegSize(b *testing.B) {
	runExperiment(b, "fig19", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "GMEAN", len(tb.Columns)-1), "largest-inc-%")
	})
}

func BenchmarkFig20SwapActivity(b *testing.B) {
	runExperiment(b, "fig20", func(tb *experiments.Table, b *testing.B) {
		if n := len(tb.Rows); n > 0 {
			b.ReportMetric(tb.Rows[n-1].Cells[0], "swap-x-at-max-coverage")
		}
	})
}

func BenchmarkFig21RMMConflicts(b *testing.B) {
	runExperiment(b, "fig21", func(tb *experiments.Table, b *testing.B) {
		b.ReportMetric(cellOf(tb, "GMEAN", 0), "red-at-94-%")
	})
}

func BenchmarkTable3IntegrationLoC(b *testing.B) {
	runExperiment(b, "table3", nil)
}

// benchRun builds a system for cfg and runs one catalog workload at the
// given footprint scale, panicking on configuration errors (benchmark
// configurations are programmatic).
func benchRun(b *testing.B, cfg virtuoso.Config, name string, scale float64) virtuoso.Metrics {
	b.Helper()
	w, ok := workloads.ByNameWith(name, workloads.Params{Scale: scale})
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys.Run(w)
}

// --- Ablations (DESIGN.md) --------------------------------------------

// BenchmarkAblationImitationVsEmulation quantifies the methodology axis
// itself: the same workload under injected kernel streams vs fixed
// first-order latencies.
func BenchmarkAblationImitationVsEmulation(b *testing.B) {
	for _, mode := range []core.Mode{core.Imitation, core.Emulation} {
		name := "imitation"
		if mode == core.Emulation {
			name = "emulation"
		}
		b.Run(name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := virtuoso.ScaledConfig()
				cfg.Mode = mode
				cfg.MaxAppInsts = 300_000
				m := benchRun(b, cfg, "JSON", 0.05)
				ipc = m.IPC
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationZeroPool measures the zero-page-pool design choice:
// with a pool, THP faults dodge synchronous zeroing (Fig. 6's "is there
// zero 2MB page?"); without, they pay the Fig. 2 tail.
func BenchmarkAblationZeroPool(b *testing.B) {
	for _, pool := range []int{0, 16} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				cfg := virtuoso.ScaledConfig()
				cfg.OSCfg.ZeroPoolCap = pool
				cfg.OSCfg.ZeroPoolRefill = 2
				cfg.MaxAppInsts = 0
				m := benchRun(b, cfg, "JSON", 0.05)
				if m.PFLatNs != nil {
					p99 = m.PFLatNs.Percentile(99)
				}
			}
			b.ReportMetric(p99, "pf-p99-ns")
		})
	}
}

// BenchmarkAblationPrefetchers measures the Table 4 prefetchers' effect.
func BenchmarkAblationPrefetchers(b *testing.B) {
	for _, pf := range []bool{true, false} {
		b.Run(fmt.Sprintf("prefetch=%v", pf), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := virtuoso.ScaledConfig()
				cfg.CacheCfg.EnablePrefetch = pf
				cfg.MaxAppInsts = 300_000
				m := benchRun(b, cfg, "Hadamard", 0.05)
				ipc = m.IPC
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkMultiProcess tracks the multiprogrammed scheduler's overhead
// from day one: 2- and 4-process mixes through the round-robin
// engine, reporting simulation speed and scheduler activity.
func BenchmarkMultiProcess(b *testing.B) {
	mixes := map[string][]string{
		"2proc": {"RND", "SEQ"},
		"4proc": {"RND", "SEQ", "BFS", "XS"},
	}
	for _, label := range []string{"2proc", "4proc"} {
		names := mixes[label]
		b.Run(label, func(b *testing.B) {
			var mm virtuoso.MultiMetrics
			for i := 0; i < b.N; i++ {
				ws := make([]*virtuoso.Workload, len(names))
				for j, n := range names {
					w, ok := workloads.ByNameWith(n, workloads.Params{Scale: 0.05})
					if !ok {
						b.Fatalf("unknown workload %s", n)
					}
					ws[j] = w
				}
				cfg := virtuoso.ScaledConfig()
				cfg.MaxAppInsts = 150_000
				cfg.QuantumCycles = 25_000
				sys, err := core.NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				mm, err = sys.RunMulti(ws)
				if err != nil {
					b.Fatal(err)
				}
			}
			total := mm.Aggregate.AppInsts + mm.Aggregate.KernelInsts
			b.ReportMetric(float64(total)/mm.Aggregate.WallTime.Seconds(), "sim-inst/s")
			b.ReportMetric(float64(mm.ContextSwitches), "ctx-switches")
			b.ReportMetric(float64(mm.Aggregate.CtxSwitchCycles), "ctx-switch-cycles")
		})
	}
}

// BenchmarkSweepThroughput measures sweep-scale wall time on a grid of
// many short points, where per-point fixed costs — System construction,
// the free-extent maps, the kernel tracer's stream buffer — are a large
// share of the total: the shape the pooled-reuse path (worker-local
// recycle.Pool, Sweep.NoReuse=false) exists to accelerate. Emulation
// mode with few instructions over a large, pre-fragmented memory is
// that shape distilled — construction and Fragment() dominate, the way
// short design-space screening points are dominated by setup. The
// pooled and fresh sub-benchmarks run the identical grid — results
// are byte-identical (TestSweepReuseEquivalence) — so their delta is
// pure reuse.
func BenchmarkSweepThroughput(b *testing.B) {
	grid := func(noReuse bool) *virtuoso.Sweep {
		base := virtuoso.ScaledConfig()
		base.Mode = core.Emulation
		base.MaxAppInsts = 5_000
		base.OSCfg.PhysBytes = 4 << 30
		base.FragFree2M = 0.5
		return &virtuoso.Sweep{
			Base:      base,
			Workloads: []string{"XS", "RND"},
			Seeds:     []uint64{1, 2, 3, 4},
			Params:    virtuoso.WorkloadParams{Scale: 0.05},
			Parallel:  1,
			NoReuse:   noReuse,
		}
	}
	for _, mode := range []string{"pooled", "fresh"} {
		b.Run(mode, func(b *testing.B) {
			var pts int
			for i := 0; i < b.N; i++ {
				rep, err := grid(mode == "fresh").Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				pts = len(rep.Results)
			}
			b.ReportMetric(float64(pts)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkSimulatorThroughput reports raw simulation speed (host
// instructions per second) of the execution-driven assembly.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := virtuoso.ScaledConfig()
		cfg.MaxAppInsts = 500_000
		m := benchRun(b, cfg, "XS", 0.1)
		b.ReportMetric(float64(m.AppInsts+m.KernelInsts)/m.WallTime.Seconds(), "sim-inst/s")
	}
}

// BenchmarkTieredMemory measures the tiered-memory subsystem against
// the flat-DRAM baseline under identical pressure: the same workload on
// the same undersized DRAM, with the overflow absorbed by swap (flat)
// or by a CXL+NVM hierarchy with hot/cold migration (2tier). The
// demotion/promotion metrics double as a drift alarm for the migration
// machinery; sim-inst/s tracks what the extra bookkeeping costs the
// simulator itself.
func BenchmarkTieredMemory(b *testing.B) {
	tiered := []virtuoso.TierSpec{
		{Name: "cxl", Bytes: 64 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
		{Name: "nvm", Bytes: 128 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
	}
	for _, tc := range []struct {
		name  string
		specs []virtuoso.TierSpec
	}{{"flat", nil}, {"2tier", tiered}} {
		b.Run(tc.name, func(b *testing.B) {
			var m virtuoso.Metrics
			for i := 0; i < b.N; i++ {
				cfg := virtuoso.ScaledConfig()
				cfg.MaxAppInsts = 400_000
				// Buddy keeps pages 4K (and so migratable); 12MB of DRAM
				// puts the 0.05-scale footprint well past the watermark.
				cfg.Policy = virtuoso.PolicyBuddy
				cfg.OSCfg.PhysBytes = 12 << 20
				cfg.OSCfg.SwapBytes = 512 << 20
				cfg.OSCfg.SwapThreshold = 0.5
				cfg.OSCfg.Tiers = tc.specs
				m = benchRun(b, cfg, "RND", 0.05)
			}
			b.ReportMetric(float64(m.AppInsts+m.KernelInsts)/m.WallTime.Seconds(), "sim-inst/s")
			b.ReportMetric(float64(m.OS.Demotions), "demotions")
			b.ReportMetric(float64(m.OS.Promotions), "promotions")
			b.ReportMetric(float64(m.OS.SwapOuts), "swap-outs")
		})
	}
}

// benchTraceReplay is the shared harness of the trace-replay
// benchmarks: one recorded v2 trace (made outside the timed loop, and
// rewritten as v1 when v1 is set, gzip-enveloped) replayed per
// iteration with the given extra session options. Replay skips
// workload instruction generation, so this isolates the decode +
// simulate path that ChampSim-style studies pay per run.
func benchTraceReplay(b *testing.B, v1 bool, extra ...virtuoso.Option) {
	path := filepath.Join(b.TempDir(), "bench.trc")
	opts := []virtuoso.Option{
		virtuoso.WithScaledConfig(),
		virtuoso.WithDesign(virtuoso.DesignRadix),
		virtuoso.WithPolicy(virtuoso.PolicyTHP),
		virtuoso.WithMaxInstructions(250_000),
		virtuoso.WithSeed(17),
	}
	rec, err := virtuoso.Open(append(opts,
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("XS"),
	)...)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := rec.Record(path); err != nil {
		b.Fatal(err)
	}
	if v1 {
		writeV1Copy(b, path, path+".gz")
		path += ".gz"
	}
	opts = append(opts, extra...)
	replay := func() virtuoso.Metrics {
		sess, err := virtuoso.Open(append(opts, virtuoso.WithTrace(path))...)
		if err != nil {
			b.Fatal(err)
		}
		m, err := sess.Run()
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	// One untimed replay first: the timed iterations then measure the
	// steady state — for the shared-store variant, the marginal cost of
	// a repeat replay (the one-time decode into the store is excluded,
	// exactly as for the second and later points of a sweep).
	replay()
	b.ResetTimer()
	var m virtuoso.Metrics
	for i := 0; i < b.N; i++ {
		m = replay()
	}
	b.ReportMetric(float64(m.AppInsts+m.KernelInsts)/m.WallTime.Seconds(), "sim-inst/s")
}

// BenchmarkTraceReplay measures the default replay path: a v2
// (seekable block-compressed) trace decoded inline, one block at a
// time, on the simulating goroutine.
func BenchmarkTraceReplay(b *testing.B) {
	benchTraceReplay(b, false)
}

// BenchmarkTraceReplayV1 measures the legacy v1 gzip-enveloped format
// decoded inline, record by record — the before side of the v2
// migration.
func BenchmarkTraceReplayV1(b *testing.B) {
	benchTraceReplay(b, true)
}

// BenchmarkTraceReplayShared measures warm replays through the shared
// decoded-trace store: the trace is decoded once (first iteration, or
// a prior point in a sweep) and every timed replay streams the
// in-memory records — the per-point cost the sweep path pays.
func BenchmarkTraceReplayShared(b *testing.B) {
	store := virtuoso.NewTraceStore(0)
	benchTraceReplay(b, false, virtuoso.WithTraceStore(store))
}
