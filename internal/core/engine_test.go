package core

import (
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/workloads"
)

func smallSystem(t testing.TB, mut func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.OSCfg.PhysBytes = 1 * mem.GB
	cfg.MaxAppInsts = 200_000
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

// byName builds a catalog workload with explicit parameters.
func byName(t testing.TB, name string, p workloads.Params) *workloads.Workload {
	t.Helper()
	w, ok := workloads.ByNameWith(name, p)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}

func TestRunQuickstartWorkload(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}

	s := smallSystem(t, nil)
	m := s.Run(byName(t, "2D-Sum", tiny))

	if m.AppInsts == 0 {
		t.Fatal("no application instructions executed")
	}
	if m.Cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
	if m.MinorFaults == 0 {
		t.Fatal("expected first-touch minor faults")
	}
	if m.KernelInsts == 0 {
		t.Fatal("imitation mode must inject kernel instructions")
	}
	if m.Segvs != 0 {
		t.Fatalf("unexpected segvs: %d", m.Segvs)
	}
	if m.IPC <= 0 || m.IPC > 4 {
		t.Fatalf("implausible IPC %f", m.IPC)
	}
	t.Logf("insts=%d kinsts=%d cycles=%d ipc=%.3f faults=%d mpki=%.2f ptw=%.1f",
		m.AppInsts, m.KernelInsts, m.Cycles, m.IPC, m.MinorFaults, m.L2TLBMPKI, m.AvgPTWLat)
}

func TestEmulationModeInjectsNothing(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}

	s := smallSystem(t, func(c *Config) {
		c.Mode = Emulation
		c.FixedPTWLat = 60
		c.FixedFaultLat = 5800
	})
	m := s.Run(byName(t, "2D-Sum", tiny))
	if m.KernelInsts != 0 {
		t.Fatalf("emulation mode injected %d kernel instructions", m.KernelInsts)
	}
	if m.MinorFaults == 0 {
		t.Fatal("functional faults must still happen")
	}
	if m.Dram.Accesses[mem.ATPTE] != 0 {
		t.Fatalf("fixed walker must not touch DRAM for PTEs, saw %d", m.Dram.Accesses[mem.ATPTE])
	}
}

func TestAllDesignsRun(t *testing.T) {
	tiny := workloads.Params{Scale: 0.03}

	designs := []DesignName{DesignRadix, DesignECH, DesignHDC, DesignHT, DesignUtopia, DesignRMM, DesignMidgard}
	for _, d := range designs {
		d := d
		t.Run(string(d), func(t *testing.T) {
			s := smallSystem(t, func(c *Config) {
				c.Design = d
				c.MaxAppInsts = 100_000
				switch d {
				case DesignUtopia:
					c.Policy = PolicyUtopia
					c.UtopiaSegs = []UtopiaSegSpec{{SizeBytes: 128 * mem.MB, Ways: 16, PageSize: mem.Page4K}}
				case DesignRMM:
					c.Policy = PolicyEager
				case DesignECH, DesignHDC, DesignHT:
					c.Policy = PolicyBuddy
				}
			})
			m := s.Run(byName(t, "Hadamard", tiny))
			if m.Segvs != 0 {
				t.Fatalf("%s: %d segvs", d, m.Segvs)
			}
			if m.MinorFaults == 0 {
				t.Fatalf("%s: no faults", d)
			}
			if m.IPC <= 0 {
				t.Fatalf("%s: zero IPC", d)
			}
			t.Logf("%s: ipc=%.3f faults=%d ptw=%.1f walks=%d", d, m.IPC, m.MinorFaults, m.AvgPTWLat, m.Walks)
		})
	}
}

func TestAllPoliciesRun(t *testing.T) {
	tiny := workloads.Params{Scale: 0.03}

	pols := []PolicyName{PolicyBuddy, PolicyTHP, PolicyCRTHP, PolicyARTHP}
	for _, p := range pols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			s := smallSystem(t, func(c *Config) {
				c.Policy = p
				c.MaxAppInsts = 100_000
			})
			m := s.Run(byName(t, "JSON", tiny))
			if m.Segvs != 0 {
				t.Fatalf("%s: %d segvs", p, m.Segvs)
			}
			if m.MinorFaults == 0 {
				t.Fatalf("%s: no faults", p)
			}
		})
	}
}

func TestMmapSyscallThroughChannel(t *testing.T) {
	s := smallSystem(t, nil)
	base := s.Mmap(8*mem.MB, mimicos.MmapFlags{Anon: true})
	if base == 0 {
		t.Fatal("mmap returned zero base")
	}
	if s.FuncChan.Messages == 0 {
		t.Fatal("functional channel saw no messages")
	}
	if s.OS.VMAOf(1, base) == nil {
		t.Fatal("VMA not created")
	}
}

// TestRunStepsNoReadAhead guards RunSteps' contract with caller-owned
// sources: a bounded call must leave every instruction it did not
// retire in the source. Two bounded calls followed by an unbounded one
// on one source must retire exactly the instructions — and reach
// exactly the core and MMU state — of a single unbounded call.
func TestRunStepsNoReadAhead(t *testing.T) {
	tiny := workloads.Params{Scale: 0.05}
	const n = 60_000

	type outcome struct {
		retired isa.Stream
		core    cpu.Stats
		mmu     mmu.Stats
	}
	run := func(bounds ...uint64) outcome {
		s := smallSystem(t, nil)
		// Materialise a prefix of the workload's stream so both runs
		// replay one slice through a batch-capable source.
		gen := s.Prepare(byName(t, "2D-Sum", tiny))
		stream := make(isa.Stream, n)
		if got := isa.FillBatch(gen, stream); got != n {
			t.Fatalf("workload produced %d instructions, want %d", got, n)
		}
		var o outcome
		s.SetFrontendTap(func(in isa.Inst) { o.retired = append(o.retired, in) })
		src := &isa.SliceSource{S: stream}
		for _, b := range bounds {
			s.RunSteps(src, b)
		}
		o.core, o.mmu = *s.Core.Stats(), *s.MMU.Stats()
		return o
	}
	split := run(7_000, 13_000, 0)
	whole := run(0)

	if len(whole.retired) != n {
		t.Fatalf("unbounded RunSteps retired %d of %d instructions", len(whole.retired), n)
	}
	if !slices.Equal(split.retired, whole.retired) {
		t.Fatalf("split RunSteps retired a different stream: %d vs %d instructions", len(split.retired), len(whole.retired))
	}
	if split.core != whole.core {
		t.Errorf("core stats differ:\nsplit: %+v\nwhole: %+v", split.core, whole.core)
	}
	if split.mmu != whole.mmu {
		t.Errorf("MMU stats differ:\nsplit: %+v\nwhole: %+v", split.mmu, whole.mmu)
	}
}
