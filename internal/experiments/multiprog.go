package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// Multiprog reproduces the multiprogramming study the single-process
// engine could not run: heterogeneous mixes scheduled round-robin on
// one core (mix × quantum × TLB-retention grid), reporting how context
// switches inflate translation overhead and how ASID-tagged retention
// recovers it. Every point shares one physical memory between its
// processes, so swap and khugepaged activity reflect the combined
// footprint.
func Multiprog(o Opts) *Table {
	t := &Table{
		ID:    "multiprog",
		Title: "Multiprogrammed mixes: translation overhead under context switching (flush vs ASID retention)",
		Columns: []string{
			"L2-TLB-misses(flush)", "L2-TLB-misses(retain)", "miss-reduction-%",
			"IPC(flush)", "IPC(retain)", "ctx-switches", "swap-outs",
		},
	}

	mixes := [][]string{
		{"RND", "SEQ"},
		{"BFS", "XS"},
		{"RND", "SEQ", "BFS", "XS"},
	}
	quanta := []uint64{25_000, 100_000}
	if o.Quick {
		mixes = mixes[:2]
	}

	// Every process runs to completion (no instruction bound): the mixes
	// must get past their build phases into the iterate phases where
	// access patterns — and therefore scheduling effects — differ, and
	// completion exercises the exit/reap/ASID-recycle path. Footprints
	// are scaled down accordingly.
	params := workloads.Params{Scale: 0.04, LongIters: 3}
	if o.Quick {
		params = workloads.Params{Scale: 0.02, LongIters: 2}
	}

	type variant struct{ retain bool }
	variants := []variant{{false}, {true}}

	var jobs []runner.Job
	for _, mix := range mixes {
		for _, q := range quanta {
			for _, v := range variants {
				cfg := BaseConfig(o)
				cfg.MaxAppInsts = 0
				cfg.QuantumCycles = q
				cfg.ASIDRetention = v.retain
				names := append([]string(nil), mix...)
				jobs = append(jobs, runner.Job{
					Cfg: cfg,
					Mix: func() ([]*workloads.Workload, error) { return workloads.MixWith(names, params) },
				})
			}
		}
	}

	outs, err := runner.Run(context.Background(), jobs, runner.Options{Parallel: o.Parallel})
	if err != nil {
		panic(err)
	}

	i := 0
	for _, mix := range mixes {
		for _, q := range quanta {
			flush, retain := outs[i].Multi, outs[i+1].Multi
			i += 2
			red := 0.0
			if flush.Aggregate.L2TLBMisses > 0 {
				red = 100 * (1 - float64(retain.Aggregate.L2TLBMisses)/float64(flush.Aggregate.L2TLBMisses))
			}
			t.Add(fmt.Sprintf("%s q=%d", core.MixName(mix), q),
				float64(flush.Aggregate.L2TLBMisses),
				float64(retain.Aggregate.L2TLBMisses),
				red,
				flush.Aggregate.IPC,
				retain.Aggregate.IPC,
				float64(flush.ContextSwitches),
				float64(flush.Aggregate.OS.SwapOuts),
			)
		}
	}
	t.Note("Round-robin MimicOS scheduler, per-process address spaces sharing one physical memory; 'retain' keeps TLB entries across switches isolated by ASID tags, 'flush' models untagged TLBs. Every process runs to completion (no instruction bound), exercising the exit/reap/ASID-recycle path.")
	return t
}
