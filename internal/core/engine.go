package core

import (
	"cmp"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/recycle"
	"repro/internal/registry"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/utopia"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// Mode selects the OS-simulation methodology (§2.1 / Table 1).
type Mode uint8

const (
	// Imitation is Virtuoso's methodology: kernel routines execute in
	// MimicOS and their instruction streams are injected into the core.
	Imitation Mode = iota
	// Emulation is the baseline-simulator methodology: functional OS
	// effects with fixed first-order latencies (no injected streams, no
	// walk memory traffic).
	Emulation
)

// String returns the mode's canonical CLI name.
func (m Mode) String() string {
	if m == Emulation {
		return "emulation"
	}
	return "imitation"
}

// Frontend selects how application instructions reach the core model
// (§6.2's three integration styles).
type Frontend uint8

const (
	// FrontendExec is execution-driven (Sniper-style): instructions are
	// generated and simulated on the fly.
	FrontendExec Frontend = iota
	// FrontendTrace is trace-driven (ChampSim-style): the application
	// trace is materialised first, then replayed.
	FrontendTrace
	// FrontendMemTrace is memory-trace-driven (Ramulator-style): only
	// memory operations are simulated.
	FrontendMemTrace
	// FrontendEmu is emulation-driven (gem5-SE-style): a functional
	// emulation step precedes timing for each instruction.
	FrontendEmu
)

// DesignName selects the MMU/translation design under study.
type DesignName string

// Supported translation designs.
const (
	DesignRadix     DesignName = "radix"
	DesignECH       DesignName = "ech"
	DesignHDC       DesignName = "hdc"
	DesignHT        DesignName = "ht"
	DesignUtopia    DesignName = "utopia"
	DesignRMM       DesignName = "rmm"
	DesignMidgard   DesignName = "midgard"
	DesignDirectSeg DesignName = "directseg"
	// DesignNested runs the workload in a guest on a MimicOS hypervisor
	// with two-dimensional (nested) translation (§6.1; see nested.go).
	DesignNested DesignName = "nested"
)

// PolicyName selects the physical memory allocation policy (§7.5).
type PolicyName string

// Supported allocation policies.
const (
	PolicyBuddy  PolicyName = "bd"
	PolicyTHP    PolicyName = "thp"
	PolicyCRTHP  PolicyName = "cr-thp"
	PolicyARTHP  PolicyName = "ar-thp"
	PolicyUtopia PolicyName = "utopia"
	PolicyEager  PolicyName = "eager"
)

// UtopiaSegSpec configures one RestSeg.
type UtopiaSegSpec struct {
	SizeBytes uint64
	Ways      int
	PageSize  mem.PageSize
}

// Config assembles a full simulated system.
type Config struct {
	Mode     Mode
	Frontend Frontend

	Design DesignName
	Policy PolicyName

	UtopiaSegs       []UtopiaSegSpec
	UtopiaSwapOnFull bool

	CoreCfg  cpu.Config
	CacheCfg cache.HierarchyConfig
	MMUCfg   mmu.Config
	DramCfg  dram.Config
	OSCfg    mimicos.Config

	// FragFree2M initialises physical-memory fragmentation as the
	// fraction of 2MB blocks left *free*. The paper states fragmentation
	// as the unavailable fraction: its "baseline fragmentation 80%"
	// (Table 4) is FragFree2M = 0.20.
	FragFree2M float64

	// MaxAppInsts bounds the run (0 = run the workload to completion).
	MaxAppInsts uint64

	// TracePath, with Frontend set to FrontendTrace or FrontendMemTrace,
	// streams the application instruction stream from the given trace
	// file (see internal/trace) instead of generating it from the
	// workload — the §6.2 ChampSim/Ramulator integration styles made
	// concrete. The file is validated when the system is built; each run
	// opens its own reader, so concurrent systems may replay one file.
	TracePath string

	// TraceShared, when non-nil, serves TracePath replays from a shared
	// decoded-trace store: each distinct trace content is decoded once
	// per process and every replay streams from the in-memory copy.
	// Sweeps replaying a few traces across many configurations set this;
	// single runs leave it nil and decode on the fly. Excluded from JSON
	// (like ReferencePath) so sweep-spec hashes do not depend on how the
	// trace bytes reach the engine.
	TraceShared *trace.Shared `json:"-"`

	// RefNoise adds the OS-noise components of the reference ("real")
	// system that MimicOS deliberately omits — used as ground truth in
	// the §7.2 validation experiments.
	RefNoise bool

	// RetainKernelStreams keeps injected streams in a ring buffer,
	// modelling online binary instrumentation's memory cost (Fig. 11:
	// Sniper/ChampSim vs Ramulator/gem5).
	RetainKernelStreams int

	// Multiprogramming (RunMulti). QuantumCycles is the round-robin
	// scheduler's time slice in simulated cycles (0 = DefaultQuantum);
	// CtxSwitchCycles is the cost charged per context switch
	// (0 = DefaultCtxSwitchCost). With ASIDRetention the TLB hierarchy
	// keeps entries across switches, isolated by ASID tags; without it
	// every switch flushes the TLBs (untagged-TLB behaviour), so the
	// retention benefit is directly measurable.
	QuantumCycles   uint64
	CtxSwitchCycles uint64
	ASIDRetention   bool

	// ReferencePath sets the run loop's frontend batch length to one
	// instruction (instead of batchSize) in Run, RunRecording and
	// RunMulti, and makes trace replay decode the file inline instead of
	// streaming from TraceShared. Both settings produce byte-identical
	// Results (the differential suite asserts it); the knob exists so the
	// equivalence is testable and so a fast-lane regression can be
	// bisected against the reference. Excluded from JSON so sweep-spec
	// hashes do not depend on it.
	ReferencePath bool `json:"-"`

	Seed uint64
}

// Emulation-mode first-order latencies, in cycles (§2.1): baseline
// Sniper charges every page walk the average PTW latency measured on the
// real system, and ChampSim every page fault a fixed ~2 µs.
const (
	emulationPTWLat   = 60
	emulationFaultLat = 5800
)

// Multiprogramming defaults: a ~34 µs time slice at the Table 4 clock —
// short relative to real CFS slices, proportional to the experiments'
// ~100× scaled-down footprints — and a ~1.5 µs switch cost
// (state save/restore plus scheduler work).
const (
	DefaultQuantum       = 100_000
	DefaultCtxSwitchCost = 4_350
)

// DefaultConfig returns the Table 4 baseline Virtuoso+Sniper system.
func DefaultConfig() Config {
	return Config{
		Mode:       Imitation,
		Frontend:   FrontendExec,
		Design:     DesignRadix,
		Policy:     PolicyTHP,
		CoreCfg:    cpu.DefaultConfig(),
		CacheCfg:   cache.DefaultHierarchyConfig(),
		MMUCfg:     mmu.DefaultConfig(),
		DramCfg:    dram.DDR4_2400(),
		OSCfg:      mimicos.DefaultConfig(),
		FragFree2M: 0.20,
		Seed:       1,
	}
}

// System is one assembled simulator + MimicOS instance.
type System struct {
	Cfg  Config
	Dram *dram.Controller
	Hier *cache.Hierarchy
	MMU  *mmu.MMU
	Core *cpu.Core
	OS   *mimicos.Kernel
	Disk *ssd.Device
	// Proc is the mm state of the process currently installed on the
	// core: the only process in single-workload runs, the scheduled one
	// during RunMulti.
	Proc *mimicos.Process

	FuncChan   *FunctionalChannel
	StreamChan *StreamChannel

	// host is the nested design's hypervisor kernel (nil for every
	// other design); hostFaults counts the EPT violations it handled.
	host       *mimicos.Kernel
	hostPT     *hostPT
	hostFaults uint64

	// pool is the worker pool the system was built from (nil for
	// NewSystem); trace frontends park their read buffers in it.
	pool *recycle.Pool

	// design is PID 1's translation design (the one the MMU starts on);
	// procs/cur track the multiprogrammed process table during RunMulti
	// (nil/idle in single-workload runs).
	design mmu.Design
	procs  []*Process
	cur    *Process
	// designEntry is the configured design's catalog entry: every
	// process's design instance is built from it.
	designEntry registry.Design

	PFLatNs      *stats.Series // minor (non-device) fault latencies, ns
	MajorPFLatNs *stats.Series // major (device-backed) fault latencies, ns
	noise        *xrand.Rand
	streamRing   []isa.Stream
	ringPos      int
	// expandStreams runs every injected kernel stream in its per-line
	// form (isa.Stream.Expand) instead of with range records: the
	// reference side of the differential test, never set otherwise.
	expandStreams bool

	swapDeviceCycles uint64
	segvs            uint64

	cancelCheck func() bool
	frontendTap func(isa.Inst)
	interrupted bool
	// polled counts instructions retired by drive, across calls, so the
	// cancellation poll keeps its stride over short scheduling slices.
	polled uint64

	// batch is the frontend buffer of Run, RunRecording and RunSteps.
	// isa.FillBatch fills it through the isa.Source interface, so it
	// escapes; parking it on the heap-resident System keeps the steady
	// state allocation-free (locked in by alloc_test.go). It is
	// allocated once per System and not pooled.
	batch []isa.Inst

	// Streaming observation (see observe.go).
	observer     func(Snapshot)
	observeEvery uint64
	nextObserve  uint64
	obsSeq       int
}

// Text-segment constants: every run maps the workload binary's code at
// the same fixed base so instruction fetches at the catalog's synthetic
// PCs resolve. Trace recording skips this VMA (replay re-creates it).
const (
	TextSegBase   mem.VAddr = 0x400000
	TextSegBytes            = 32 * mem.MB
	TextSegFileID           = 0xC0DE
)

// SetCancelCheck installs a cooperative cancellation poll: every run
// shape calls f periodically and stops early when it returns true.
// Used by the sweep runner to honour context.Context cancellation
// mid-simulation. Pass nil to remove the check.
func (s *System) SetCancelCheck(f func() bool) { s.cancelCheck = f }

// SetFrontendTap installs an observer invoked for every application
// instruction the frontend feeds the core, before it is simulated —
// the hook trace recording uses (see internal/trace.Recorder). Kernel
// streams injected by MimicOS do not pass the tap: a trace captures
// the application, and replaying it regenerates the kernel work under
// whatever OS configuration the replay run uses. Pass nil to remove.
func (s *System) SetFrontendTap(f func(isa.Inst)) { s.frontendTap = f }

// Cancelled reports whether the installed cancellation check fired.
func (s *System) Cancelled() bool {
	return s.cancelCheck != nil && s.cancelCheck()
}

// Interrupted reports whether a run on this system was actually stopped
// early by the cancellation check — as opposed to the check's context
// being cancelled after the simulation already completed. Callers use
// it to tell truncated metrics from valid ones under a racing cancel.
func (s *System) Interrupted() bool { return s.interrupted }

// NewSystem wires a complete system per cfg. The kernel, one process,
// the translation design, and the channels are all constructed; call Run
// with a workload to simulate.
func NewSystem(cfg Config) (*System, error) { return NewSystemPooled(cfg, nil) }

// NewSystemPooled is NewSystem drawing the system's large allocations —
// cache SoA arrays, the free-page bitmap, page-table arena chunks —
// from pool. Construction logic is shared with NewSystem (only memory
// provenance differs, and pooled slices are scrubbed to fresh-make
// state), so a pooled system is deterministic and byte-identical in its
// results to a fresh one; the sweep runner relies on this and
// TestSweepReuseEquivalence locks it in. A nil pool is exactly
// NewSystem.
func NewSystemPooled(cfg Config, pool *recycle.Pool) (*System, error) {
	if err := cfg.CacheCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid cache config: %w", err)
	}
	if err := cfg.MMUCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid MMU config: %w", err)
	}
	if cfg.CoreCfg.Width == 0 {
		cfg.CoreCfg = cpu.DefaultConfig()
	}
	s := &System{Cfg: cfg, Disk: ssd.New(ssd.Config{}), noise: xrand.New(cfg.Seed ^ 0x0A15E), pool: pool}

	// OS first: it owns physical memory.
	oscfg := cfg.OSCfg
	if oscfg.PhysBytes == 0 {
		oscfg = mimicos.DefaultConfig()
	}
	if oscfg.PhysBytes%(2*mem.MB) != 0 {
		return nil, fmt.Errorf("core: physical memory of %d bytes is not a multiple of 2 MB", oscfg.PhysBytes)
	}
	// Tier configs fail loudly here, not mid-run: a sweep point or CLI
	// flag with a bad tier spec errors before any simulation starts.
	if err := tier.ValidateSpecs(oscfg.Tiers); err != nil {
		return nil, fmt.Errorf("core: invalid tier config: %w", err)
	}
	var tierPol tier.Policy
	if len(oscfg.Tiers) > 0 {
		p, ok := registry.NewTierPolicy(cmp.Or(oscfg.TierPolicy, tier.PolicyHotCold))
		if !ok {
			return nil, fmt.Errorf("core: unknown tier policy %q (known: %v)", oscfg.TierPolicy, registry.TierPolicyNames())
		}
		tierPol = p
	} else if oscfg.TierPolicy != "" {
		return nil, fmt.Errorf("core: tier policy %q set without any tiers configured", oscfg.TierPolicy)
	}
	design, ok := registry.LookupDesign(string(cmp.Or(cfg.Design, DesignRadix)))
	if !ok {
		return nil, fmt.Errorf("core: unknown design %q (known: %v)", cfg.Design, registry.DesignNames())
	}
	policy, ok := registry.NewPolicy(string(cmp.Or(cfg.Policy, PolicyBuddy)))
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (known: %v)", cfg.Policy, registry.PolicyNames())
	}
	s.designEntry = design
	oscfg.PTKind = design.PTKind
	s.OS = mimicos.NewWith(oscfg, s.Disk, pool)
	if tierPol != nil {
		s.OS.SetTierPolicy(tierPol)
	}
	proc, err := s.OS.CreateProcess(1)
	if err != nil {
		return nil, err
	}
	s.Proc = proc

	// Design-specific OS state.
	if cfg.Design == DesignUtopia {
		segs := cfg.UtopiaSegs
		if len(segs) == 0 {
			segs = []UtopiaSegSpec{
				{SizeBytes: 512 * mem.MB, Ways: 16, PageSize: mem.Page4K},
			}
		}
		sys := &utopia.System{SwapOnFull: cfg.UtopiaSwapOnFull}
		for i, sp := range segs {
			seg, err := utopia.NewRestSeg(fmt.Sprintf("restseg%d", i), sp.SizeBytes, sp.Ways, sp.PageSize, s.OS.Phys)
			if err != nil {
				return nil, err
			}
			sys.Segs = append(sys.Segs, seg)
		}
		s.OS.Utopia = sys
	}
	if design.Attach != nil {
		design.Attach(s.OS, s.Proc)
	}
	s.OS.SetPolicy(policy)

	// Fragment physical memory after carve-outs so RestSegs and hash
	// tables stay contiguous. FragFree2M = 0 is meaningful (the paper's
	// "100% fragmentation": no free 2MB blocks); negative disables.
	if cfg.FragFree2M >= 0 && cfg.FragFree2M < 1 {
		s.OS.Phys.FragmentWith(cfg.FragFree2M, cfg.Seed^0xF4A6, pool)
	}

	// Memory side.
	s.Dram = dram.NewController(cfg.DramCfg)
	s.Hier = cache.NewHierarchyWith(cfg.CacheCfg, s.Dram, pool)

	// Translation design.
	if cfg.Design == DesignNested {
		if err := s.buildHost(oscfg.PhysBytes, pool); err != nil {
			return nil, err
		}
	}
	s.design = s.buildDesignFor(s.Proc)
	s.MMU = mmu.New(cfg.MMUCfg, s.design, s.Proc.ASID)
	s.Core = cpu.New(cfg.CoreCfg, s.Hier, s.MMU)

	// Channels and callbacks.
	s.FuncChan = NewFunctionalChannel(s.serveRequest)
	s.StreamChan = &StreamChannel{}
	s.Core.SetFaultHandler(s.handleFault)
	s.OS.SetUnmapNotifier(func(pid int, va mem.VAddr, size mem.PageSize) {
		// A kernel daemon may unmap pages of a process other than the
		// one on the core (khugepaged collapse, reclaim of a descheduled
		// process): the shootdown must then target that process's ASID
		// and its own design, not the current context's.
		if p := s.procByPID(pid); p != nil && p != s.cur {
			s.MMU.InvalidateASIDVA(p.ASID, va, size)
			p.Design.Invalidate(va, size)
			return
		}
		s.MMU.Invalidate(va, size)
	})
	s.OS.SetExitNotifier(func(pid int, asid uint16) {
		// ASID-wide shootdown on exit: the ASID is about to be recycled
		// and must not hit the dead process's stale translations.
		s.MMU.FlushASID(asid)
	})
	if cfg.RetainKernelStreams > 0 {
		s.streamRing = make([]isa.Stream, cfg.RetainKernelStreams)
	}

	// Fail fast on a missing or malformed trace file: the run itself
	// cannot report errors, so the build step validates the header.
	if cfg.TracePath != "" {
		if cfg.Frontend != FrontendTrace && cfg.Frontend != FrontendMemTrace {
			return nil, fmt.Errorf("core: TracePath set but frontend is not trace-driven (use FrontendTrace or FrontendMemTrace)")
		}
		if _, err := trace.ReadHeader(cfg.TracePath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSystem is NewSystem, panicking on configuration errors. It is
// kept for internal tests only; production callers use NewSystem.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Recycle harvests a retired system's large allocations into pool for
// the next NewSystemPooled call: cache arrays, the free-page bitmap and
// its block counts, and surviving page-table arenas. Call it only after
// Run/RunMulti returned and the Metrics have been extracted — the
// system is unusable afterwards. A nil pool is a no-op.
func (s *System) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	s.Hier.Recycle(pool)
	s.OS.Recycle(pool)
	if s.host != nil {
		s.host.Recycle(pool)
	}
}

// ReleaseTransients is a no-op. Kernel events are a few records, so a
// finished system holds no buffer worth handing on; it remains only
// until the perfbench harness stops calling it.
func (s *System) ReleaseTransients() {}

// buildDesignFor constructs the configured translation design bound to
// one process's page table and design state. Every process owns its own
// design instance (its page-table root, walk caches, range/VMA tables),
// which is what a CR3 write switches between in RunMulti.
func (s *System) buildDesignFor(proc *mimicos.Process) mmu.Design {
	if s.Cfg.Mode == Emulation {
		return &mmu.FixedWalker{PT: proc.PT, Lat: emulationPTWLat}
	}
	env := registry.DesignEnv{OS: s.OS, Proc: proc, Mem: s.Hier}
	env.PWCEntries, env.PWCWays = s.Cfg.MMUCfg.PWC()
	if s.hostPT != nil {
		env.Host = s.hostPT
	}
	return s.designEntry.New(env)
}

// serveRequest is the kernel-side functional-channel handler.
func (s *System) serveRequest(req Request) Response {
	switch req.Kind {
	case EvPageFault:
		return Response{Fault: s.OS.HandlePageFault(req.PID, req.VA, req.Write, req.Now)}
	case EvMmap:
		return Response{MmapBase: s.OS.Mmap(req.PID, req.Length, req.Flags)}
	case EvMunmap:
		s.OS.Munmap(req.PID, req.VA, req.Length)
		return Response{}
	}
	panic("core: unknown request kind")
}

// handleFault is the core's page-fault callback: the §4.4 round trip.
func (s *System) handleFault(va mem.VAddr, write bool) bool {
	resp := s.FuncChan.Call(Request{
		Kind: EvPageFault, PID: s.Proc.PID, VA: va, Write: write, Now: s.Core.Now(),
	})
	out := resp.Fault
	if !out.OK {
		s.segvs++
		return false
	}
	s.swapDeviceCycles += out.DeviceCycles

	switch s.Cfg.Mode {
	case Emulation:
		s.Core.StallFault(emulationFaultLat)
		if s.PFLatNs != nil {
			s.PFLatNs.Add(s.Core.CyclesToNs(emulationFaultLat))
		}
	case Imitation:
		if s.streamRing != nil {
			// Online instrumentation retains translated code buffers,
			// one record per executed instruction.
			s.streamRing[s.ringPos%len(s.streamRing)] = s.OS.TakeStream().Expand()
			s.ringPos++
		}
		spent := s.inject(s.OS)
		if s.Cfg.RefNoise {
			spent += s.referenceNoise()
		}
		if out.Major {
			if s.MajorPFLatNs != nil {
				s.MajorPFLatNs.Add(s.Core.CyclesToNs(spent))
			}
		} else if s.PFLatNs != nil {
			s.PFLatNs.Add(s.Core.CyclesToNs(spent))
		}
	}
	return true
}

// inject delivers the stream kernel k recorded for its last event
// through the instruction-stream channel and runs it on the core,
// returning the cycles it consumed.
func (s *System) inject(k *mimicos.Kernel) uint64 {
	stream := k.TakeStream()
	if s.expandStreams {
		stream = stream.Expand()
	}
	return s.Core.RunStream(s.StreamChan.Deliver(stream))
}

// referenceNoise models the kernel activity a real machine interleaves
// with fault handling that MimicOS does not imitate: scheduler/IRQ jitter
// on every fault, and occasional reclaim/compaction interference.
func (s *System) referenceNoise() uint64 {
	var extra uint64
	r := s.noise.Float64()
	switch {
	case r < 0.015: // LRU/compaction scan interferes (~20 µs)
		extra = 58_000
	case r < 0.10: // timer/IRQ on this CPU (~1.5 µs)
		extra = 4_350
	default: // per-fault jitter up to ~0.4 µs
		extra = uint64(s.noise.Float64() * 1160)
	}
	s.Core.StallFault(extra)
	return extra
}

// Mmap issues an mmap syscall through the functional channel, injecting
// the kernel stream in imitation mode.
func (s *System) Mmap(length uint64, flags mimicos.MmapFlags) mem.VAddr {
	resp := s.FuncChan.Call(Request{Kind: EvMmap, PID: s.Proc.PID, Length: length, Flags: flags})
	if s.Cfg.Mode == Imitation {
		s.inject(s.OS)
	}
	return resp.MmapBase
}

// makeFrontend adapts the workload source per the configured frontend.
//
// With TracePath set, the trace-driven frontends stream records from
// the file instead of deriving anything from the workload: this is the
// real ChampSim/Ramulator integration style, where the trace IS the
// application. Without TracePath, FrontendTrace falls back to
// materialising the synthetic stream in memory first (the historical
// behaviour), and FrontendMemTrace filters the synthetic stream on the
// fly.
func (s *System) makeFrontend(w *workloads.Workload) isa.Source {
	return s.makeFrontendSeeded(w, 0)
}

// makeFrontendSeeded is makeFrontend with a per-process seed salt:
// multiprogrammed runs salt each process's source with its PID so two
// instances of the same workload do not execute identical streams. The
// zero salt preserves the historical single-process stream bit-for-bit
// (recorded traces replay unchanged).
func (s *System) makeFrontendSeeded(w *workloads.Workload, salt uint64) isa.Source {
	if s.Cfg.TracePath != "" {
		// Every replay decodes inline on the simulating goroutine,
		// except that the fast lane streams from the shared
		// decoded-trace store when the caller provides one. The
		// reference path always decodes inline, so
		// TestFastPathEquivalenceReplay also proves the store
		// stream-identical to the file.
		open := func(path string) isa.Source { return trace.MustOpenSource(path, s.pool) }
		if s.Cfg.TraceShared != nil && !s.Cfg.ReferencePath {
			open = s.Cfg.TraceShared.MustOpen
		}
		switch s.Cfg.Frontend {
		case FrontendTrace:
			// NewSystem validated the file; a failure here means it
			// changed since, which the source reports by panicking.
			return open(s.Cfg.TracePath)
		case FrontendMemTrace:
			return &memTraceSource{inner: open(s.Cfg.TracePath)}
		}
	}
	base := w.Source(s.Cfg.Seed ^ 0xF00D ^ salt)
	switch s.Cfg.Frontend {
	case FrontendTrace:
		// Materialise the trace first (ChampSim-style trace file in
		// memory), then replay.
		var tr isa.Stream
		var in isa.Inst
		limit := s.Cfg.MaxAppInsts
		var n uint64
		for base.Next(&in) {
			tr = append(tr, in)
			n += in.N()
			if limit > 0 && n >= limit+limit/8 {
				break
			}
		}
		return &isa.SliceSource{S: tr}
	case FrontendMemTrace:
		return &memTraceSource{inner: base}
	case FrontendEmu:
		return &emuSource{inner: base}
	default:
		return base
	}
}

// memTraceSource strips non-memory instructions (Ramulator-style
// memory-trace frontend): ALU batches collapse into token costs.
type memTraceSource struct {
	inner isa.Source
}

// Close forwards to the wrapped source so a file-backed inner stream
// is released when a bounded run stops early.
func (m *memTraceSource) Close() error {
	if c, ok := m.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Next implements isa.Source.
func (m *memTraceSource) Next(out *isa.Inst) bool {
	for {
		if !m.inner.Next(out) {
			return false
		}
		if out.Op.HasMemOperand() || out.Op == isa.OpDelay {
			return true
		}
		// Non-memory work becomes a 1-cycle-per-4-inst bubble to keep
		// timestamps meaningful.
		if n := out.N(); n >= 16 {
			*out = isa.Inst{Op: isa.OpDelay, Count: uint32(n / 4)}
			return true
		}
	}
}

// emuSource models gem5-SE's functional-first execution: each
// instruction is first emulated (host-side work), then timed.
type emuSource struct {
	inner isa.Source
	sink  uint64
}

// Next implements isa.Source.
func (e *emuSource) Next(out *isa.Inst) bool {
	if !e.inner.Next(out) {
		return false
	}
	// Functional emulation pass (hash the operands, as a stand-in for
	// interpreting the instruction).
	e.sink = e.sink*6364136223846793005 + out.Addr + uint64(out.Op)
	return true
}

// closeSource releases a frontend source that holds resources (an open
// trace file). Sources built purely in memory implement no Closer and
// cost nothing.
func closeSource(src isa.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}
