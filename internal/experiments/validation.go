package experiments

import (
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// refConfig builds the reference ("real system") configuration used as
// ground truth in the §7.2 validation: the most detailed simulation plus
// (i) the OS-noise components MimicOS deliberately omits and (ii) a
// microarchitectural perturbation standing in for the silicon/model gap
// (the real Xeon's exact TLB/PWC organisation is not public).
func refConfig(o Opts) core.Config {
	cfg := BaseConfig(o)
	cfg.RefNoise = true
	cfg.Seed = o.Seed + 7777
	m := ScaledMMU()
	m.STLBEntries = 96 // silicon differs from the model's round numbers
	m.STLBWays = 12
	m.DTLB4KEntries = 20
	cfg.MMUCfg = m
	cc := ScaledCaches()
	cc.L3Size = 1536 * 1024
	cc.L3Ways = 12
	cfg.CacheCfg = cc
	return cfg
}

// Fig08 reproduces Figure 8: IPC estimation accuracy of Virtuoso+Sniper
// and baseline Sniper (fixed PTW latency) against the reference system.
// Paper: Virtuoso 80% vs baseline 66% average accuracy.
func Fig08(o Opts) *Table {

	t := &Table{
		ID:      "fig08",
		Title:   "IPC estimation accuracy vs reference system",
		Columns: []string{"IPC ref", "IPC virtuoso", "IPC baseline", "acc virtuoso %", "acc baseline %"},
	}

	ws := longSubset(o)
	var jobs []job
	for _, w := range ws {
		refCfg := refConfig(o)
		refCfg.MaxAppInsts = 0
		jobs = append(jobs, job{refCfg, named(o, w)})

		vCfg := BaseConfig(o)
		vCfg.MaxAppInsts = 0
		jobs = append(jobs, job{vCfg, named(o, w)})

		base := BaseConfig(o)
		base.MaxAppInsts = 0
		// Emulation mode charges baseline Sniper's fixed PTW latency:
		// the *average* latency measured on the real system (§7.2), one
		// number for all workloads, which is exactly why it mistracks.
		base.Mode = core.Emulation
		jobs = append(jobs, job{base, named(o, w)})
	}
	ms := runAll(o, jobs)

	var accV, accB []float64
	for i, w := range ws {
		ref, virt, bm := ms[3*i], ms[3*i+1], ms[3*i+2]
		av := 100 * stats.Accuracy(virt.IPC, ref.IPC)
		ab := 100 * stats.Accuracy(bm.IPC, ref.IPC)
		accV = append(accV, av)
		accB = append(accB, ab)
		t.Add(w.Name(), ref.IPC, virt.IPC, bm.IPC, av, ab)
	}
	t.Add("MEAN", 0, 0, 0, meanOf(accV), meanOf(accB))
	t.Note("Paper: Virtuoso 80%% vs baseline Sniper 66%% mean IPC accuracy (+21%%).")
	return t
}

// Fig09 reproduces Figure 9: cosine similarity between the page-fault
// latency series of Virtuoso and the reference system across the
// short-running suite (paper: 0.60–0.79, mean 0.66).
func Fig09(o Opts) *Table {

	t := &Table{
		ID:      "fig09",
		Title:   "Cosine similarity of page fault latency series vs reference",
		Columns: []string{"cosine similarity", "faults"},
	}
	ws := shortSubset(o)
	ms := runAll(o, refAndVirtJobs(o, ws))

	var sims []float64
	for i, w := range ws {
		ref, virt := ms[2*i], ms[2*i+1]
		var sim float64
		if ref.PFLatNs != nil && virt.PFLatNs != nil {
			sim = stats.CosineSimilarity(virt.PFLatNs.Values(), ref.PFLatNs.Values())
		}
		sims = append(sims, sim)
		t.Add(w.Name(), sim, float64(virt.MinorFaults))
	}
	t.Add("MEAN", meanOf(sims), 0)
	t.Note("Paper: cosine similarity 0.60–0.79 across workloads, mean 0.66.")
	return t
}

// Fig10 reproduces Figure 10: L2 TLB MPKI and PTW latency of
// Virtuoso+Sniper against the reference system (paper: 82% and 85%
// accuracy respectively).
func Fig10(o Opts) *Table {

	t := &Table{
		ID:      "fig10",
		Title:   "L2 TLB MPKI and PTW latency vs reference system",
		Columns: []string{"MPKI ref", "MPKI virtuoso", "MPKI acc %", "PTW ref", "PTW virtuoso", "PTW acc %"},
	}
	ws := longSubset(o)
	ms := runAll(o, refAndVirtJobs(o, ws))

	var accM, accP []float64
	for i, w := range ws {
		ref, virt := ms[2*i], ms[2*i+1]
		am := 100 * stats.Accuracy(virt.L2TLBMPKI, ref.L2TLBMPKI)
		ap := 100 * stats.Accuracy(virt.AvgPTWLat, ref.AvgPTWLat)
		accM = append(accM, am)
		accP = append(accP, ap)
		t.Add(w.Name(), ref.L2TLBMPKI, virt.L2TLBMPKI, am, ref.AvgPTWLat, virt.AvgPTWLat, ap)
	}
	t.Add("MEAN", 0, 0, meanOf(accM), 0, 0, meanOf(accP))
	t.Note("Paper: 82%% MPKI accuracy, 85%% PTW latency accuracy on average.")
	return t
}

// refAndVirtJobs pairs each workload with a reference-system run and a
// Virtuoso run (the §7.2 validation pattern shared by Figs. 9 and 10).
func refAndVirtJobs(o Opts, ws []*workloads.Workload) []job {
	jobs := make([]job, 0, 2*len(ws))
	for _, w := range ws {
		refCfg := refConfig(o)
		refCfg.MaxAppInsts = 0
		jobs = append(jobs, job{refCfg, named(o, w)})

		vCfg := BaseConfig(o)
		vCfg.MaxAppInsts = 0
		jobs = append(jobs, job{vCfg, named(o, w)})
	}
	return jobs
}

var _ = mmu.DefaultConfig
