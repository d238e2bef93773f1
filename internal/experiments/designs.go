package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/workloads"
)

// Fig17 reproduces Figure 17: the breakdown of Midgard address
// translation latency between frontend (VA→MA through the VLBs and VMA
// tree) and backend (MA→PA). Paper: most workloads spend <20% in the
// frontend; BC — with its 147 small VMAs — spends >50%.
func Fig17(o Opts) *Table {

	t := &Table{
		ID:      "fig17",
		Title:   "Midgard translation latency breakdown (% frontend vs backend)",
		Columns: []string{"frontend %", "backend %"},
	}
	ws := longSubset(o)
	if !o.Quick {
		// BC is the interesting outlier; make sure it is present.
		ws = workloads.LongSuiteWith(paramsFor(o))
	} else {
		ws = append([]*workloads.Workload{byName(o, "BC")}, ws...)
	}
	jobs := make([]job, 0, len(ws))
	for _, w := range ws {
		cfg := BaseConfig(o)
		cfg.Design = core.DesignMidgard
		jobs = append(jobs, job{cfg, named(o, w)})
	}
	ms := runAll(o, jobs)
	for i, w := range ws {
		m := ms[i]
		total := float64(m.FrontendCycles + m.BackendCycles)
		if total == 0 {
			t.Add(w.Name(), 0, 0)
			continue
		}
		fe := 100 * float64(m.FrontendCycles) / total
		t.Add(w.Name(), fe, 100-fe)
	}
	t.Note("Paper: frontend <20%% of translation latency for most workloads; >50%% for BC (147 small VMAs thrash the 16-entry L2 VLB).")
	return t
}

// Fig18 reproduces Figure 18: the census of VMA sizes in BC — one huge
// VMA plus ~147 small ones.
func Fig18(o Opts) *Table {

	t := &Table{
		ID:      "fig18",
		Title:   "Number of VMAs per size bucket in BC",
		Columns: []string{"count"},
	}
	k := mimicos.New(mimicos.DefaultConfig(), nil)
	if _, err := k.CreateProcess(1); err != nil {
		panic(err)
	}
	w := byName(o, "BC")
	w.Setup(k, 1)

	buckets := []struct {
		label string
		limit uint64
	}{
		{"=4KB", 4 * mem.KB},
		{"<128KB", 128 * mem.KB},
		{"<256KB", 256 * mem.KB},
		{"<512KB", 512 * mem.KB},
		{"<1MB", mem.MB},
		{"<8MB", 8 * mem.MB},
		{"<16MB", 16 * mem.MB},
		{"<32MB", 32 * mem.MB},
		{"<1GB", mem.GB},
		{">=1GB", ^uint64(0)},
	}
	counts := make([]int, len(buckets))
	var largest uint64
	total := 0
	for _, v := range k.Process(1).VMAs {
		size := v.Len()
		total++
		if size > largest {
			largest = size
		}
		for i, b := range buckets {
			if size <= b.limit {
				counts[i]++
				break
			}
		}
	}
	for i, b := range buckets {
		t.Add(b.label, float64(counts[i]))
	}
	t.Add("total VMAs", float64(total))
	t.Add("largest VMA (MB)", float64(largest)/float64(mem.MB))
	t.Note("Paper: BC uses one 77GB VMA plus 147 smaller VMAs from 4KB to 1GB (footprints scaled here).")
	return t
}

// Fig19 reproduces Figure 19: increase in address translation latency as
// the Utopia RestSeg grows (paper: 8→64 GB raises translation latency by
// up to 10% because the virtual tag array loses cache locality).
// RestSeg sizes are scaled with the rest of the system (8 GB → 128 MB).
func Fig19(o Opts) *Table {

	sizes := []uint64{128 * mem.MB, 256 * mem.MB, 512 * mem.MB, 1024 * mem.MB}
	labels := []string{"16GB-equiv", "32GB-equiv", "64GB-equiv"}
	if o.Quick {
		sizes = sizes[:3]
		labels = labels[:2]
	}

	t := &Table{
		ID:      "fig19",
		Title:   "Increase in translation latency vs 8GB-equivalent RestSeg (%)",
		Columns: labels,
	}

	ws := longSubset(o)
	var jobs []job
	for _, w := range ws {
		for _, sz := range sizes {
			cfg := BaseConfig(o)
			cfg.Design = core.DesignUtopia
			cfg.Policy = core.PolicyUtopia
			cfg.OSCfg = mimicos.DefaultConfig()
			cfg.OSCfg.PhysBytes = 4 * mem.GB
			cfg.UtopiaSegs = []core.UtopiaSegSpec{{SizeBytes: sz, Ways: 16, PageSize: mem.Page4K}}
			jobs = append(jobs, job{cfg, named(o, w)})
		}
	}
	ms := runAll(o, jobs)

	var sums []float64
	for wi, w := range ws {
		trans := make([]float64, 0, len(sizes))
		for si := range sizes {
			trans = append(trans, float64(ms[wi*len(sizes)+si].TranslationCycles))
		}
		cells := make([]float64, 0, len(sizes)-1)
		for i := 1; i < len(trans); i++ {
			var inc float64
			if trans[0] > 0 {
				inc = 100 * (trans[i] - trans[0]) / trans[0]
			}
			cells = append(cells, inc)
		}
		t.Add(w.Name(), cells...)
		if sums == nil {
			sums = make([]float64, len(cells))
		}
		for i, c := range cells {
			sums[i] += c
		}
	}
	for i := range sums {
		sums[i] /= float64(len(longSubset(o)))
	}
	t.Add("GMEAN", sums...)
	t.Note("Paper: translation latency rises with RestSeg size, up to ~10%% for the largest segment.")
	return t
}

// Fig20 reproduces Figure 20: cycles spent swapping as the restrictive
// segment covers a growing fraction of main memory, normalized to Radix
// (paper: up to 203× at full coverage — set-conflict evictions swap even
// though free memory exists).
func Fig20(o Opts) *Table {

	coverages := []float64{0.50, 0.60, 0.70, 0.80, 0.90, 1.0}
	if o.Quick {
		coverages = []float64{0.50, 0.90}
	}
	t := &Table{
		ID:      "fig20",
		Title:   "Normalized cycles spent swapping vs RestSeg coverage of main memory",
		Columns: []string{"swap cycles vs Radix"},
	}

	physBytes := uint64(1 * mem.GB)
	// The workload fills ~85% of physical memory, so Radix barely swaps
	// while constrained RestSeg sets must evict.
	w := func() *workloads.Workload { return swapPressure(physBytes * 85 / 100) }

	base := BaseConfig(o)
	base.OSCfg.PhysBytes = physBytes
	base.Policy = core.PolicyBuddy
	base.MaxAppInsts = 0
	jobs := []job{{base, w}}
	for _, cov := range coverages {
		cfg := BaseConfig(o)
		cfg.OSCfg.PhysBytes = physBytes
		cfg.Design = core.DesignUtopia
		cfg.Policy = core.PolicyUtopia
		cfg.UtopiaSwapOnFull = true
		cfg.MaxAppInsts = 0
		cfg.UtopiaSegs = []core.UtopiaSegSpec{
			{SizeBytes: mem.AlignUp(uint64(float64(physBytes)*cov*0.9), 2*mem.MB), Ways: 16, PageSize: mem.Page4K},
		}
		jobs = append(jobs, job{cfg, w})
	}
	ms := runAll(o, jobs)

	baseSwap := float64(ms[0].OS.SwapCycles)
	if baseSwap == 0 {
		baseSwap = 1 // Radix stays under the watermark: normalize to 1 cycle
	}
	for ci, cov := range coverages {
		t.Add(fmt.Sprintf("%.0f%%", 100*cov), float64(ms[ci+1].OS.SwapCycles)/baseSwap)
	}
	t.Note("Paper: swapping grows with restrictive coverage, up to 203x vs Radix at 100%%.")
	return t
}

// swapPressure builds a workload whose anonymous footprint approaches
// the physical memory size.
func swapPressure(foot uint64) *workloads.Workload {
	return workloads.Custom("swap-pressure", workloads.LongRunning, foot,
		func(w *workloads.Workload, k *mimicos.Kernel, pid int) {
			w.SetBase("data", k.Mmap(pid, foot, mimicos.MmapFlags{Anon: true}))
		},
		func(w *workloads.Workload) []workloads.Step {
			return []workloads.Step{
				{Kind: workloads.StepTouch, Base: w.Base("data"), Size: foot, Stride: 4 * mem.KB, PC: 0xB00100},
				{Kind: workloads.StepRand, Base: w.Base("data"), Size: foot, Count: foot / (16 * mem.KB), ALUPer: 4, PC: 0xB00200},
			}
		})
}

// Fig21 reproduces Figure 21: reduction in DRAM row-buffer conflicts
// caused by address-translation metadata, RMM over Radix, across
// fragmentation levels (paper: ~90% even at 94% fragmentation).
func Fig21(o Opts) *Table {

	frags := []float64{0.94, 0.92, 0.90, 0.80, 0.70, 0.60, 0.50, 0.40}
	if o.Quick {
		frags = []float64{0.94, 0.70, 0.40}
	}
	t := &Table{
		ID:      "fig21",
		Title:   "Reduction in translation-metadata DRAM row conflicts, RMM over Radix (%)",
		Columns: fragCols(frags),
	}

	ws := longSubset(o)
	var jobs []job
	for _, w := range ws {
		for _, f := range frags {
			rad := BaseConfig(o)
			rad.Design = core.DesignRadix
			rad.Policy = core.PolicyBuddy // RMM's comparison point maps 4K pages
			rad.FragFree2M = 1 - f
			jobs = append(jobs, job{rad, named(o, w)})

			rmm := BaseConfig(o)
			rmm.Design = core.DesignRMM
			rmm.Policy = core.PolicyEager
			rmm.FragFree2M = 1 - f
			jobs = append(jobs, job{rmm, named(o, w)})
		}
	}
	ms := runAll(o, jobs)

	var avg []float64
	k := 0
	for _, w := range ws {
		cells := make([]float64, 0, len(frags))
		for range frags {
			rm, mm := ms[k], ms[k+1]
			k += 2

			radC := float64(rm.Dram.TranslationConflicts())
			rmmC := float64(mm.Dram.TranslationConflicts())
			var red float64
			if radC > 0 {
				red = 100 * (radC - rmmC) / radC
			}
			cells = append(cells, red)
		}
		t.Add(w.Name(), cells...)
		if avg == nil {
			avg = make([]float64, len(cells))
		}
		for i, c := range cells {
			avg[i] += c
		}
	}
	n := float64(len(longSubset(o)))
	for i := range avg {
		avg[i] /= n
	}
	t.Add("GMEAN", avg...)
	t.Note("Paper: RMM cuts translation-metadata row conflicts by ~90%% on average even at 94%% fragmentation.")
	return t
}
