// Package virtuoso is the public API of this reproduction of "Virtuoso:
// Enabling Fast and Accurate Virtual Memory Research via an
// Imitation-based Operating System Simulation Methodology" (ASPLOS'25).
//
// A Virtuoso system couples an architectural simulator (core model, cache
// hierarchy, DRAM, optional SSD) with MimicOS, a lightweight userspace
// kernel imitating Linux memory management. OS events raised by the
// simulated workload (page faults, mmap) cross a functional channel to
// MimicOS; the instruction stream of the kernel routine that served each
// event is injected back into the core model, so OS work is charged its
// real latency and memory interference.
//
// Quick start — one configuration, error-returning:
//
//	sess, err := virtuoso.Open(
//		virtuoso.WithScaledConfig(),
//		virtuoso.WithWorkload("BFS"),
//		virtuoso.WithDesign(virtuoso.DesignRadix),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	m, err := sess.Run()
//	fmt.Println(m.IPC, m.AvgPTWLat)
//
// Design-space exploration — a (designs × policies × workloads × seeds)
// grid executed on a bounded worker pool with context cancellation:
//
//	sweep := &virtuoso.Sweep{
//		Base:      virtuoso.ScaledConfig(),
//		Designs:   []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignECH},
//		Workloads: []string{"BFS", "XS"},
//		Seeds:     []uint64{1, 2},
//		Parallel:  8,
//	}
//	report, err := sweep.Run(context.Background())
//	fmt.Println(report.GeomeanBy(virtuoso.ByDesign, func(r virtuoso.Result) float64 { return r.Metrics.IPC }))
//
// Use WithDesign / Sweep.Designs to study translation schemes (radix,
// ech, hdc, ht, utopia, rmm, midgard, directseg, nested), WithPolicy /
// Sweep.Policies for allocation policies (bd, thp, cr-thp, ar-thp,
// utopia, eager), and WithMode to compare the imitation methodology
// against fixed-latency emulation. Results marshal to JSON (see Result
// and Report) for downstream analysis.
//
// Trace record/replay — any workload can be captured to a compact
// binary trace file and replayed later through the trace-driven
// frontends (§6.2's ChampSim/Ramulator integration styles; byte-level
// format in docs/trace-format.md). Replaying a trace under the
// configuration that recorded it reproduces the recording run's Result
// exactly:
//
//	m, info, err := sess.Record("bfs.trc") // live run, stream teed to disk
//	rep, err := virtuoso.Open(virtuoso.WithTrace("bfs.trc"))
//	m2, err := rep.Run()                   // identical metrics, no workload needed
//
// Multiprogrammed runs — several workloads share one machine as
// concurrent processes, each in its own address space, interleaved by
// the MimicOS round-robin scheduler. The aggregate footprint drives
// real memory pressure into the swap and khugepaged paths, and the TLB
// either flushes on every context switch or retains entries by ASID:
//
//	sess, err := virtuoso.Open(
//		virtuoso.WithScaledConfig(),
//		virtuoso.WithProcesses("RND", "SEQ"),
//		virtuoso.WithQuantum(100_000),
//		virtuoso.WithASIDRetention(true),
//	)
//	mm, err := sess.RunMulti()
//	fmt.Println(mm.Aggregate.IPC, mm.ContextSwitches, mm.Procs[0].OS.SwapOuts)
//
// Sweeps take mixes as a grid axis (Sweep.Mixes), so design × mix ×
// seed grids of multiprogrammed points run on the same worker pool.
//
// Extension — custom allocation policies, translation designs, and
// workloads register by name through the repro/ext package and are then
// selectable everywhere a built-in is (Open options, sweep axes, the
// CLI, trace recording):
//
//	ext.MustRegisterPolicy("bank-color", func() ext.AllocPolicy { ... })
//	sess, err := virtuoso.Open(virtuoso.WithPolicy("bank-color"), ...)
//
// Observation — WithObserver streams interval Snapshots (instructions,
// cycles, TLB/PTW/OS-event counters) during a run without perturbing
// it, for progress reporting and live dashboards:
//
//	virtuoso.WithObserver(virtuoso.ObserverFunc(func(s virtuoso.Snapshot) {
//		fmt.Printf("%.0f%% ipc=%.2f\n", 100*float64(s.AppInsts)/float64(total), s.IPC())
//	}))
//
// See docs/extending.md for worked examples of all four extension
// points.
package virtuoso

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mimicos"
	"repro/internal/registry"
	"repro/internal/tier"
	"repro/internal/workloads"
)

// Re-exported configuration types.
type (
	// Config assembles a simulated system (see internal/core).
	Config = core.Config
	// Metrics is the result of one simulation run.
	Metrics = core.Metrics
	// System is an assembled simulator + MimicOS pair.
	System = core.System
	// Workload is a benchmark from the Table 5 suites or a custom one.
	Workload = workloads.Workload
	// DesignName selects a translation design.
	DesignName = core.DesignName
	// PolicyName selects an allocation policy.
	PolicyName = core.PolicyName
	// Mode selects the OS-simulation methodology.
	Mode = core.Mode
	// MmapFlags selects the VMA type for custom workloads.
	MmapFlags = mimicos.MmapFlags
	// Frontend selects how application instructions reach the core
	// model (§6.2's integration styles).
	Frontend = core.Frontend
	// WorkloadParams configures catalog workload construction (footprint
	// scale, long-running iteration count). The zero value means the
	// library defaults; passing explicit params is the race-free way to
	// build differently scaled workloads concurrently.
	WorkloadParams = workloads.Params
	// MultiMetrics is the result of one multiprogrammed run: aggregate
	// metrics plus the per-process breakdown and scheduler accounting.
	MultiMetrics = core.MultiMetrics
	// ProcessMetrics is one process's share of a multiprogrammed run.
	ProcessMetrics = core.ProcessMetrics
	// Snapshot is one interval observation of a running simulation (see
	// WithObserver). Counters are cumulative; the Final snapshot of a
	// completed run equals the corresponding fields of its Metrics.
	Snapshot = core.Snapshot
	// UtopiaSegSpec configures one Utopia RestSeg (Config.UtopiaSegs).
	UtopiaSegSpec = core.UtopiaSegSpec
	// TierSpec describes one slow memory tier (capacity, latencies,
	// bandwidth) of a tiered-memory hierarchy (see WithTiers).
	TierSpec = tier.Spec
	// TierStats is one tier's migration and occupancy counters
	// (Metrics.Tiers).
	TierStats = tier.Stats
)

// Observer receives streaming interval snapshots during a run (see
// WithObserver). Implementations must not retain or mutate simulator
// state; Observe runs on the simulation goroutine.
type Observer interface {
	Observe(Snapshot)
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(Snapshot)

// Observe implements Observer.
func (f ObserverFunc) Observe(s Snapshot) { f(s) }

// Frontend integration styles (§6.2).
const (
	// FrontendExec is execution-driven (Sniper-style): instructions are
	// generated and simulated on the fly.
	FrontendExec = core.FrontendExec
	// FrontendTrace is trace-driven (ChampSim-style): the instruction
	// stream comes from a recorded trace file (see WithTrace) or, with
	// no trace attached, is materialised in memory before the run.
	FrontendTrace = core.FrontendTrace
	// FrontendMemTrace is memory-trace-driven (Ramulator-style): only
	// memory operations are simulated; other work collapses to bubbles.
	FrontendMemTrace = core.FrontendMemTrace
	// FrontendEmu is emulation-driven (gem5-SE-style): a functional
	// emulation step precedes timing for each instruction.
	FrontendEmu = core.FrontendEmu
)

// Simulation modes (Table 1's methodology axis).
const (
	// Imitation is Virtuoso's methodology.
	Imitation = core.Imitation
	// Emulation is the fixed-latency baseline methodology.
	Emulation = core.Emulation
)

// Translation designs (§7.4's design-space axis).
const (
	// DesignRadix is the x86-64 four-level radix page table with a
	// page-walk cache — the baseline design.
	DesignRadix = core.DesignRadix
	// DesignECH is the elastic cuckoo hash table (single-step hashed
	// translation).
	DesignECH = core.DesignECH
	// DesignHDC is hash, don't cache (hashed translation without PTE
	// caching).
	DesignHDC = core.DesignHDC
	// DesignHT is a conventional open-addressing hashed page table.
	DesignHT = core.DesignHT
	// DesignUtopia is Utopia's hybrid of flexible (radix) and
	// restrictive (RestSeg) address spaces.
	DesignUtopia = core.DesignUtopia
	// DesignRMM is redundant memory mappings: range translations backed
	// by eager paging.
	DesignRMM = core.DesignRMM
	// DesignMidgard is the Midgard intermediate address space (VMA-level
	// frontend translation, backend on demand).
	DesignMidgard = core.DesignMidgard
	// DesignDirectSeg is direct segments: one large segment bypasses
	// paging, a radix table covers the rest.
	DesignDirectSeg = core.DesignDirectSeg
	// DesignNested runs the workload in a guest on a MimicOS hypervisor
	// kernel with two-dimensional (nested) translation and a nested TLB
	// (§6.1). Metrics.HostFaults counts the hypervisor's EPT
	// violations; the hypervisor backs the guest's physical memory with
	// twice as much machine memory.
	DesignNested = core.DesignNested
)

// Allocation policies (§7.5's policy axis).
const (
	// PolicyBuddy is vanilla 4KB buddy allocation.
	PolicyBuddy = core.PolicyBuddy
	// PolicyTHP is Linux-style transparent huge pages (2MB when the
	// region allows, khugepaged collapse in the background).
	PolicyTHP = core.PolicyTHP
	// PolicyCRTHP is conservative reservation-based THP (upgrade a
	// region after half its 4KB pages are touched).
	PolicyCRTHP = core.PolicyCRTHP
	// PolicyARTHP is aggressive reservation-based THP (upgrade early).
	PolicyARTHP = core.PolicyARTHP
	// PolicyUtopia allocates through Utopia's RestSegs first.
	PolicyUtopia = core.PolicyUtopia
	// PolicyEager is eager paging: allocate whole ranges at mmap time
	// (the RMM design's companion policy).
	PolicyEager = core.PolicyEager
)

// Tier migration policies (tiered-memory hierarchies, see WithTiers).
const (
	// TierPolicyHotCold is the default multi-bit-heat policy: pages warm
	// up in steps on access, cool by halving on scan, and demotion depth
	// depends on remaining heat.
	TierPolicyHotCold = tier.PolicyHotCold
	// TierPolicyClock is a one-bit referenced/not-referenced policy
	// approximating Linux's active/inactive LRU split.
	TierPolicyClock = tier.PolicyClock
)

// DefaultConfig returns the paper's Table 4 Virtuoso+Sniper system.
func DefaultConfig() Config { return core.DefaultConfig() }

// ScaledConfig returns the proportionally scaled system the experiments
// use (see internal/experiments for the scaling methodology).
func ScaledConfig() Config {
	return experiments.BaseConfig(experiments.Opts{})
}

// Session is one opened simulation: an assembled system plus the
// workload — or, for multiprogrammed sessions, the workload mix — it
// will run. Sessions are single-use — Run/RunMulti consume the system
// state — and not safe for concurrent use; open one session per
// goroutine, or use Sweep, which does exactly that.
type Session struct {
	cfg Config
	sys *core.System
	w   *Workload
	mix []*Workload
	ran bool
}

// Open assembles a simulation session from the given options, starting
// from DefaultConfig. It returns an error when an option is invalid or
// the system cannot be built.
func Open(opts ...Option) (*Session, error) {
	st := openState{cfg: DefaultConfig()}
	for _, opt := range opts {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	if st.custom == nil && st.wname == "" && len(st.mix) == 0 {
		return nil, fmt.Errorf("virtuoso: no workload selected (use WithWorkload, WithCustomWorkload, WithTrace, or WithProcesses)")
	}
	var w *Workload
	var mix []*Workload
	if len(st.mix) > 0 {
		var err error
		if mix, err = NamedMixWith(st.mix, st.params); err != nil {
			return nil, err
		}
	} else {
		w = st.custom
		if w == nil {
			var err error
			if w, err = NamedWorkloadWith(st.wname, st.params); err != nil {
				return nil, err
			}
		}
	}
	sys, err := core.NewSystem(st.cfg)
	if err != nil {
		return nil, err
	}
	if st.obs != nil {
		sys.SetObserver(st.obs.Observe, st.obsEvery)
	}
	return &Session{cfg: st.cfg, sys: sys, w: w, mix: mix}, nil
}

// Config returns the session's assembled configuration.
func (s *Session) Config() Config { return s.cfg }

// System exposes the underlying simulator for advanced use (installing
// custom OS policies, inspecting MimicOS state, driving RunSteps).
func (s *Session) System() *System { return s.sys }

// Workload returns the workload the session runs (nil for
// multiprogrammed sessions — see Mix).
func (s *Session) Workload() *Workload { return s.w }

// Mix returns the workloads of a multiprogrammed session in process
// order (nil for single-workload sessions).
func (s *Session) Mix() []*Workload { return s.mix }

// Run simulates the session's workload to completion (or the configured
// instruction bound) and returns the collected metrics.
func (s *Session) Run() (Metrics, error) { return s.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the simulation polls
// ctx every few thousand instructions and aborts with ctx's error when
// it is cancelled, discarding the truncated metrics.
func (s *Session) RunContext(ctx context.Context) (Metrics, error) {
	if len(s.mix) > 0 {
		return Metrics{}, fmt.Errorf("virtuoso: session was opened with WithProcesses; use RunMulti")
	}
	if s.ran {
		return Metrics{}, fmt.Errorf("virtuoso: session already run (sessions are single-use; Open a new one)")
	}
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	s.ran = true
	done := ctx.Done()
	s.sys.SetCancelCheck(func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	// Uninstall the check afterwards: the system stays usable for
	// direct driving (RunSteps) and must not poll a dead context.
	defer s.sys.SetCancelCheck(nil)
	m := s.sys.Run(s.w)
	if s.sys.Interrupted() {
		// Only a run the cancellation actually stopped is discarded; a
		// cancel that lands after completion leaves the metrics whole.
		return Metrics{}, ctx.Err()
	}
	return m, nil
}

// RunMulti simulates a multiprogrammed session (opened with
// WithProcesses) to completion and returns aggregate plus per-process
// metrics. The run is deterministic: the same configuration yields
// byte-identical results on every execution, standalone or inside a
// parallel Sweep.
func (s *Session) RunMulti() (MultiMetrics, error) {
	return s.RunMultiContext(context.Background())
}

// RunMultiContext is RunMulti with cooperative cancellation.
func (s *Session) RunMultiContext(ctx context.Context) (MultiMetrics, error) {
	if len(s.mix) == 0 {
		return MultiMetrics{}, fmt.Errorf("virtuoso: session has a single workload; use Run (or open with WithProcesses)")
	}
	if s.ran {
		return MultiMetrics{}, fmt.Errorf("virtuoso: session already run (sessions are single-use; Open a new one)")
	}
	if err := ctx.Err(); err != nil {
		return MultiMetrics{}, err
	}
	s.ran = true
	done := ctx.Done()
	s.sys.SetCancelCheck(func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	defer s.sys.SetCancelCheck(nil)
	mm, err := s.sys.RunMulti(s.mix)
	if err != nil {
		return MultiMetrics{}, err
	}
	if s.sys.Interrupted() {
		return MultiMetrics{}, ctx.Err()
	}
	return mm, nil
}

// Result packages the session's metrics with the configuration echo the
// sweep runner produces, for uniform JSON output. Index is always zero
// for session results — it identifies grid position only in sweep
// reports — so key downstream tooling on Result.Key(), not Index.
func (s *Session) Result(m Metrics) Result {
	return Result{
		Workload:   s.w.Name(),
		Design:     s.cfg.Design,
		Policy:     s.cfg.Policy,
		TierPolicy: tierPolicyEcho(s.cfg),
		Mode:       s.cfg.Mode.String(),
		Seed:       s.cfg.Seed,
		Metrics:    m,
	}
}

// MultiResult packages a multiprogrammed run's metrics as a Result:
// Metrics carries the aggregate, Multi the per-process breakdown, and
// Workload the "+"-joined mix name — the same shape sweep points with
// Mixes produce, so standalone and swept multiprogrammed runs are
// byte-comparable.
func (s *Session) MultiResult(mm MultiMetrics) Result {
	return Result{
		Workload:   core.MixName(mm.Mix),
		Design:     s.cfg.Design,
		Policy:     s.cfg.Policy,
		TierPolicy: tierPolicyEcho(s.cfg),
		Mode:       s.cfg.Mode.String(),
		Seed:       s.cfg.Seed,
		Metrics:    mm.Aggregate,
		Multi:      &mm,
	}
}

// NamedWorkload returns a Table 5 workload ("BC", "BFS", ..., "JSON",
// "Llama-2-7B", ...) built with the default parameters, or an error if
// the name is unknown.
func NamedWorkload(name string) (*Workload, error) {
	return NamedWorkloadWith(name, WorkloadParams{})
}

// NamedWorkloadWith returns a Table 5 workload — or one registered
// through the extension API (repro/ext) — built with explicit
// construction parameters. Explicit parameters are safe to vary across
// concurrent constructions (parallel sweeps build workloads inside
// their workers). The catalog is consulted first (with its forgiving
// matching), then the registry by exact name.
func NamedWorkloadWith(name string, p WorkloadParams) (*Workload, error) {
	if err := validateParams(p); err != nil {
		return nil, err
	}
	if w, ok := workloads.ByNameWith(name, p); ok {
		return w, nil
	}
	if w, ok, err := registry.NewWorkload(name, p); ok {
		if err != nil {
			return nil, fmt.Errorf("virtuoso: workload %q: %w", name, err)
		}
		if w == nil {
			return nil, fmt.Errorf("virtuoso: workload %q: constructor returned nil", name)
		}
		return w, nil
	}
	return nil, fmt.Errorf("virtuoso: unknown workload %q", name)
}

// NamedMixWith builds one fresh workload per name for a multiprogrammed
// mix — the shared construction path behind WithProcesses, Sweep.Mixes,
// and the multiprogramming experiments. Catalog and registered
// workloads mix freely; each call returns new instances, so concurrent
// runs never share mutable workload state.
func NamedMixWith(names []string, p WorkloadParams) ([]*Workload, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("virtuoso: empty workload mix")
	}
	ws := make([]*Workload, len(names))
	for i, n := range names {
		w, err := NamedWorkloadWith(n, p)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// validateParams rejects parameter values that would silently build a
// nonsensical workload (a negative scale wraps the footprint conversion
// into exabytes).
func validateParams(p WorkloadParams) error {
	if p.Scale < 0 {
		return fmt.Errorf("virtuoso: workload scale %v must not be negative", p.Scale)
	}
	if p.LongIters < 0 {
		return fmt.Errorf("virtuoso: workload iterations %d must not be negative", p.LongIters)
	}
	return nil
}

// LongRunningSuite returns the Table 5 long-running workloads.
func LongRunningSuite() []*Workload { return workloads.LongSuite() }

// ShortRunningSuite returns the Table 5 short-running workloads.
func ShortRunningSuite() []*Workload { return workloads.ShortSuite() }

// ExtraWorkloads returns the catalog extras outside the Table 5 suites
// (e.g. "SEQ"), usable by name anywhere a suite workload is — most
// relevantly in multiprogrammed mixes.
func ExtraWorkloads() []*Workload { return workloads.ExtraSuite() }
