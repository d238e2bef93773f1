// Multiprogrammed simulation: a MimicOS scheduler interleaves N
// processes — each with its own PID, ASID, page table, translation
// design, and frontend instruction source — on the single simulated
// core, in round-robin time slices of a configurable quantum. All
// processes share one physical memory, so the aggregate footprint
// drives real pressure into the swap and khugepaged paths, and the TLB
// hierarchy either flushes on every switch or retains entries by ASID
// (Config.ASIDRetention), making the retention benefit measurable.
package core

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Process is one schedulable simulated process: a workload bound to its
// own address space (MimicOS mm state + ASID), its own translation
// design instance (page-table root, walk caches, design tables — the
// state a CR3 write switches), and per-process accounting.
type Process struct {
	PID    int
	ASID   uint16
	W      *workloads.Workload
	OS     *mimicos.Process
	Design mmu.Design

	// fe reads the process's instruction source; its read-ahead
	// persists across scheduling slices.
	fe       frontend
	finished bool
	// slices counts the process's scheduling slices; acc sums the
	// counter deltas across them.
	slices uint64
	acc    Counters
}

// ProcessMetrics is one process's share of a multiprogrammed run: the
// core/MMU counters accumulated over its scheduling slices plus the
// kernel events attributed to it (including daemon work — a khugepaged
// collapse of its regions counts here even if another process's fault
// drove the scan).
type ProcessMetrics struct {
	PID      int    `json:"pid"`
	ASID     uint16 `json:"asid"`
	Workload string `json:"workload"`

	Slices      uint64 `json:"slices"`
	AppInsts    uint64 `json:"app_insts"`
	KernelInsts uint64 `json:"kernel_insts"`
	Cycles      uint64 `json:"cycles"`

	IPC               float64 `json:"ipc"`
	TranslationCycles uint64  `json:"translation_cycles"`
	MemoryCycles      uint64  `json:"memory_cycles"`
	FaultCycles       uint64  `json:"fault_cycles"`
	L2TLBMisses       uint64  `json:"l2_tlb_misses"`
	L2TLBMPKI         float64 `json:"l2_tlb_mpki"`
	Walks             uint64  `json:"walks"`
	AvgPTWLat         float64 `json:"avg_ptw_lat"`

	// Finished reports whether the process ran to completion (false only
	// when the run was interrupted).
	Finished bool `json:"finished"`

	// OS is the kernel event share attributed to this PID (faults, swap
	// in/out, collapses, reclaim, ...).
	OS mimicos.Stats `json:"os"`
}

// MultiMetrics is the result of one multiprogrammed run: aggregate
// whole-system metrics plus the per-process breakdown and scheduler
// accounting.
type MultiMetrics struct {
	// Mix lists the workload names in process (PID) order.
	Mix []string `json:"mix"`
	// Quantum and ASIDRetention echo the scheduler configuration.
	Quantum       uint64 `json:"quantum"`
	ASIDRetention bool   `json:"asid_retention"`

	// ContextSwitches counts dispatches of a different process; the
	// cycles they cost are in Aggregate.CtxSwitchCycles. TLBFlushes
	// counts whole-hierarchy flushes issued by dispatches (zero in
	// retention mode).
	ContextSwitches uint64 `json:"context_switches"`
	TLBFlushes      uint64 `json:"tlb_flushes"`

	Aggregate Metrics          `json:"aggregate"`
	Procs     []ProcessMetrics `json:"procs"`
}

// MixName joins the mix's workload names into the run's display name.
func MixName(names []string) string { return strings.Join(names, "+") }

// procByPID returns the multiprogrammed process with the given PID, or
// nil (always nil in single-workload runs).
func (s *System) procByPID(pid int) *Process {
	for _, p := range s.procs {
		if p.PID == pid {
			return p
		}
	}
	return nil
}

// Processes exposes the multiprogrammed process table (nil before
// RunMulti) for tests and advanced drivers.
func (s *System) Processes() []*Process { return s.procs }

// Finished reports whether the process ran its source to completion
// (or its instruction bound) and was reaped.
func (p *Process) Finished() bool { return p.finished }

// attachProcess binds workload w to a process: PID 1 reuses the address
// space NewSystem created; later PIDs get a fresh MimicOS process with
// their own design state.
func (s *System) attachProcess(pid int, w *workloads.Workload) (*Process, error) {
	op := s.Proc
	design := s.design
	if pid != 1 {
		var err error
		if op, err = s.OS.CreateProcess(pid); err != nil {
			return nil, err
		}
		if s.designEntry.Attach != nil {
			s.designEntry.Attach(s.OS, op)
		}
		design = s.buildDesignFor(op)
	}
	return &Process{PID: pid, ASID: op.ASID, W: w, OS: op, Design: design}, nil
}

// dispatch installs p's address-space context on the core: kernel-side
// mm state for fault handling, and the MMU's ASID + design. Without
// ASID retention the dispatch flushes the TLB hierarchy, as an
// untagged-TLB context switch must.
func (s *System) dispatch(p *Process) {
	s.Proc = p.OS
	s.cur = p
	s.MMU.SwitchContext(p.ASID, p.Design, !s.Cfg.ASIDRetention)
}

// frontendSalt decorrelates per-process instruction streams so two
// instances of one workload in a mix do not execute identical accesses.
func frontendSalt(pid int) uint64 {
	if pid == 1 {
		return 0
	}
	return uint64(pid) * 0x9E37_79B9_7F4A_7C15
}

// RunMulti simulates the given workloads as concurrent processes under
// the MimicOS round-robin scheduler and returns aggregate plus
// per-process metrics. Config.MaxAppInsts bounds each process
// individually (0 = run every workload to completion). The run is fully
// deterministic: the schedule advances on simulated cycles only, so the
// same configuration yields byte-identical results on every execution,
// sequential or inside a parallel sweep.
//
// The utopia design/policy is not supported (RestSeg tags are not
// ASID-scoped), nor are trace-driven frontends (a trace captures one
// address space). Like Run, RunMulti consumes the system.
func (s *System) RunMulti(ws []*workloads.Workload) (MultiMetrics, error) {
	if len(ws) == 0 {
		return MultiMetrics{}, fmt.Errorf("core: RunMulti needs at least one workload")
	}
	if s.Cfg.Design == DesignUtopia || s.Cfg.Policy == PolicyUtopia {
		return MultiMetrics{}, fmt.Errorf("core: multiprogramming does not support the utopia design/policy (RestSeg tags are not ASID-scoped)")
	}
	if s.Cfg.TracePath != "" {
		return MultiMetrics{}, fmt.Errorf("core: multiprogramming does not support trace-driven frontends")
	}
	if s.procs != nil {
		return MultiMetrics{}, fmt.Errorf("core: RunMulti already called on this system")
	}
	quantum := s.Cfg.QuantumCycles
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	csCost := s.Cfg.CtxSwitchCycles
	if csCost == 0 {
		csCost = DefaultCtxSwitchCost
	}
	s.PFLatNs = stats.NewSeries(0)
	s.MajorPFLatNs = stats.NewSeries(0)

	mix := make([]string, len(ws))
	for i, w := range ws {
		p, err := s.attachProcess(i+1, w)
		if err != nil {
			return MultiMetrics{}, err
		}
		s.procs = append(s.procs, p)
		mix[i] = w.Name()
	}

	// Address-space setup (exec/loader phase) for every process —
	// functional only, setup streams dropped — then the per-process
	// frontends.
	for _, p := range s.procs {
		s.OS.Mmap(p.PID, TextSegBytes, mimicos.MmapFlags{
			File: true, FileID: TextSegFileID, FixedAddr: TextSegBase,
		})
		p.W.Setup(s.OS, p.PID)
	}
	s.OS.Tracer.Begin()
	// Finished processes close their sources (and nil them) at exit;
	// this releases the rest when cancellation stops the schedule early
	// or a frontend fails to open partway through the loop below
	// (file-backed sources hold descriptors).
	defer func() {
		for _, p := range s.procs {
			if p.fe.src != nil {
				closeSource(p.fe.src)
			}
		}
	}()
	for _, p := range s.procs {
		p.fe = frontend{
			src: s.makeFrontendSeeded(p.W, frontendSalt(p.PID)),
			buf: make([]isa.Inst, batchLen(s.Cfg.ReferencePath)),
		}
	}

	mm := MultiMetrics{Mix: mix, Quantum: quantum, ASIDRetention: s.Cfg.ASIDRetention}
	mm.Aggregate = s.measure(MixName(mix), func() { s.schedule(quantum, csCost) })
	c := s.counters()
	mm.ContextSwitches, mm.TLBFlushes = c.Core.ContextSwitches, c.MMU.ContextFlushes
	for _, p := range s.procs {
		mm.Procs = append(mm.Procs, p.metrics())
	}
	return mm, nil
}

// schedule runs the round-robin schedule until every process has
// finished or the cancellation check fires. Each slice is one drive of
// the process's frontend, bounded by the slice end and by what is left
// of the process's instruction budget.
func (s *System) schedule(quantum, csCost uint64) {
	maxPer := s.Cfg.MaxAppInsts
	runnable := len(s.procs)
	cur := -1
	for runnable > 0 {
		// Round-robin: the next runnable process after the current one.
		next := cur
		for off := 1; off <= len(s.procs); off++ {
			c := (cur + len(s.procs) + off) % len(s.procs)
			if !s.procs[c].finished {
				next = c
				break
			}
		}
		p := s.procs[next]
		if next != cur {
			if cur != -1 {
				s.Core.ContextSwitch(csCost)
			}
			s.dispatch(p)
		}
		cur = next

		before := s.counters()
		appEnd := noBound
		if maxPer > 0 {
			// A process is reaped once its budget is spent, so a
			// scheduled one always has some left.
			appEnd = before.Core.AppInsts + maxPer - p.acc.Core.AppInsts
		}
		why := s.drive(&p.fe, appEnd, s.Core.Now()+quantum)
		p.acc = p.acc.Sub(before.Sub(s.counters())) // acc + (after − before)
		p.slices++
		switch why {
		case stopCancel:
			return
		case stopSlice:
			continue
		}
		p.finished = true
		closeSource(p.fe.src)
		p.fe.src = nil
		// Exit and reap: VMAs torn down, frames freed, the ASID
		// flushed hierarchy-wide (exit notifier) and recycled. In
		// imitation mode the traced do_exit/teardown stream is
		// injected like any other kernel work, so reaping a large
		// address space costs real cycles (charged to the system,
		// not the dead process's slices).
		s.OS.ExitProcess(p.PID)
		if s.Cfg.Mode == Imitation {
			s.inject(s.OS)
		}
		runnable--
	}
}

// metrics packages the process's accumulated counters.
func (p *Process) metrics() ProcessMetrics {
	c := &p.acc
	return ProcessMetrics{
		PID:      p.PID,
		ASID:     p.ASID,
		Workload: p.W.Name(),

		Slices:      p.slices,
		AppInsts:    c.Core.AppInsts,
		KernelInsts: c.Core.KernelInsts,
		Cycles:      c.Core.Cycles,

		IPC:               c.Core.IPC(),
		TranslationCycles: c.Core.TranslationCycles,
		MemoryCycles:      c.Core.MemoryCycles,
		FaultCycles:       c.Core.FaultCycles,
		L2TLBMisses:       c.MMU.L2TLBMisses,
		L2TLBMPKI:         c.L2TLBMPKI(),
		Walks:             c.MMU.Walks,
		AvgPTWLat:         c.MMU.AvgWalkLatency(),

		Finished: p.finished,
		OS:       p.OS.Stat,
	}
}
