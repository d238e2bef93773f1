package virtuoso

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/tier"
	"repro/internal/trace"
)

// Option configures a Session being built by Open. Options are applied
// in order; the last write to a field wins. An option that receives an
// invalid value records an error, and Open reports the first one.
type Option func(*openState) error

// openState accumulates the configuration Open assembles. The named
// workload (or mix) is only looked up once every option has been
// applied, so WithWorkloadScale takes effect regardless of option
// order.
type openState struct {
	cfg      Config
	wname    string
	custom   *Workload
	mix      []string
	params   WorkloadParams
	obs      Observer
	obsEvery uint64
}

// KnownDesigns returns every selectable translation design name: the
// built-ins in catalog order followed by designs registered through the
// public extension API (repro/ext), sorted.
func KnownDesigns() []DesignName { return named[DesignName](registry.DesignNames()) }

// KnownPolicies returns every selectable allocation policy name: the
// built-ins in catalog order followed by policies registered through
// the public extension API (repro/ext), sorted.
func KnownPolicies() []PolicyName { return named[PolicyName](registry.PolicyNames()) }

// KnownTierPolicies returns every selectable tier migration policy
// name: the built-ins in catalog order followed by policies registered
// through the public extension API (repro/ext), sorted.
func KnownTierPolicies() []string { return registry.TierPolicyNames() }

// named converts catalog names to a typed name list.
func named[N ~string](names []string) []N {
	out := make([]N, len(names))
	for i, n := range names {
		out[i] = N(n)
	}
	return out
}

// parseName returns name as listed in known, or an error naming the
// component kind and every known name.
func parseName[N ~string](kind, name string, known []N) (N, error) {
	for _, n := range known {
		if string(n) == name {
			return n, nil
		}
	}
	return "", fmt.Errorf("virtuoso: unknown %s %q (known: %v)", kind, name, known)
}

// ParseTierPolicy validates a tier migration policy name: one listed by
// KnownTierPolicies. The empty string is valid and selects the default
// (TierPolicyHotCold) when tiers are configured.
func ParseTierPolicy(name string) (string, error) {
	if name == "" {
		return "", nil
	}
	return parseName("tier policy", name, KnownTierPolicies())
}

// ValidateTierSpecs checks a slow-tier list the way Open and sweep-spec
// parsing do: non-empty unique names (with "dram" and "swap" reserved
// for the implicit fast and terminal tiers), at least one page of
// capacity, and non-zero access latencies. A nil or empty list — flat
// memory — is valid.
func ValidateTierSpecs(specs []TierSpec) error { return tier.ValidateSpecs(specs) }

// RegisteredWorkloads returns the names of workloads registered through
// the public extension API (repro/ext), sorted. Catalog workloads are
// enumerated by LongRunningSuite, ShortRunningSuite, and ExtraWorkloads.
func RegisteredWorkloads() []string { return registry.WorkloadNames() }

// ParseDesign validates a translation design name: one listed by
// KnownDesigns.
func ParseDesign(name string) (DesignName, error) {
	return parseName("design", name, KnownDesigns())
}

// ParsePolicy validates an allocation policy name: one listed by
// KnownPolicies.
func ParsePolicy(name string) (PolicyName, error) {
	return parseName("policy", name, KnownPolicies())
}

// ParseMode validates an OS-methodology name ("imitation" or
// "emulation").
func ParseMode(name string) (Mode, error) {
	switch name {
	case "imitation":
		return Imitation, nil
	case "emulation":
		return Emulation, nil
	}
	return Imitation, fmt.Errorf("virtuoso: unknown mode %q (known: imitation, emulation)", name)
}

// WithConfig replaces the entire base configuration (default:
// DefaultConfig). Apply it before field-level options, which otherwise
// get overwritten.
func WithConfig(cfg Config) Option {
	return func(s *openState) error {
		s.cfg = cfg
		return nil
	}
}

// WithScaledConfig starts from the proportionally scaled system the
// experiments use instead of the full Table 4 system — simulations
// finish in seconds rather than minutes.
func WithScaledConfig() Option {
	return func(s *openState) error {
		s.cfg = ScaledConfig()
		return nil
	}
}

// WithDesign selects the translation design under study — a built-in
// or one registered through the extension API (repro/ext).
func WithDesign(d DesignName) Option {
	return func(s *openState) error {
		if _, err := ParseDesign(string(d)); err != nil {
			return err
		}
		s.cfg.Design = d
		return nil
	}
}

// WithPolicy selects the physical memory allocation policy — a
// built-in or one registered through the extension API (repro/ext).
func WithPolicy(p PolicyName) Option {
	return func(s *openState) error {
		if _, err := ParsePolicy(string(p)); err != nil {
			return err
		}
		s.cfg.Policy = p
		return nil
	}
}

// WithTiers configures a tiered physical memory hierarchy: DRAM plus
// the given slow tiers in fall-back order, with the swap device (when
// configured) as the implicit terminal tier. Cold pages demote down
// the hierarchy under DRAM pressure; a fault on a slow-tier page is
// the promotion hint that migrates it back to DRAM, with migration
// cost charged to simulated time. Passing no specs restores flat
// memory. The specs are validated here, so Open reports a bad
// hierarchy before any simulation starts.
func WithTiers(specs ...TierSpec) Option {
	return func(s *openState) error {
		if err := ValidateTierSpecs(specs); err != nil {
			return err
		}
		s.cfg.OSCfg.Tiers = append([]TierSpec(nil), specs...)
		return nil
	}
}

// WithTierPolicy selects the tier migration policy — a built-in
// (TierPolicyHotCold, TierPolicyClock) or one registered through the
// extension API (repro/ext). It only has effect together with
// WithTiers; Open rejects a policy set on a flat-memory config.
func WithTierPolicy(name string) Option {
	return func(s *openState) error {
		p, err := ParseTierPolicy(name)
		if err != nil {
			return err
		}
		s.cfg.OSCfg.TierPolicy = p
		return nil
	}
}

// WithMode selects the OS-simulation methodology (Imitation or
// Emulation).
func WithMode(m Mode) Option {
	return func(s *openState) error {
		if m != Imitation && m != Emulation {
			return fmt.Errorf("virtuoso: unknown mode %d", m)
		}
		s.cfg.Mode = m
		return nil
	}
}

// WithWorkload selects the Table 5 workload the session runs, by name.
func WithWorkload(name string) Option {
	return func(s *openState) error {
		if err := checkWorkload(name, WorkloadParams{}); err != nil {
			return err
		}
		s.wname, s.custom, s.mix = name, nil, nil
		s.displaceTrace()
		return nil
	}
}

// WithProcesses turns the session multiprogrammed: each named workload
// becomes one concurrent process in its own address space, interleaved
// by the MimicOS round-robin scheduler (see WithQuantum and
// WithASIDRetention). The session then runs through RunMulti. Like the
// other workload selectors, the last selection wins: WithProcesses
// displaces an earlier WithWorkload/WithCustomWorkload/WithTrace and
// vice versa.
func WithProcesses(names ...string) Option {
	return func(s *openState) error {
		if len(names) == 0 {
			return fmt.Errorf("virtuoso: WithProcesses needs at least one workload")
		}
		if err := checkMix(names, WorkloadParams{}); err != nil {
			return err
		}
		s.mix = append([]string(nil), names...)
		s.wname, s.custom = "", nil
		s.displaceTrace()
		return nil
	}
}

// WithQuantum sets the multiprogrammed scheduler's round-robin time
// slice in simulated cycles (0 keeps the default).
func WithQuantum(cycles uint64) Option {
	return func(s *openState) error {
		s.cfg.QuantumCycles = cycles
		return nil
	}
}

// WithASIDRetention selects whether the TLB hierarchy retains entries
// across context switches, isolated by ASID tags (true), or flushes on
// every switch like an untagged TLB (false, the default). Only
// multiprogrammed runs switch contexts, so single-workload sessions
// are unaffected.
func WithASIDRetention(retain bool) Option {
	return func(s *openState) error {
		s.cfg.ASIDRetention = retain
		return nil
	}
}

// displaceTrace undoes an earlier WithTrace when a later option selects
// a different workload: the trace no longer drives the stream, and a
// frontend left on the trace-driven setting would silently materialise
// the whole synthetic stream in memory instead of executing it.
func (s *openState) displaceTrace() {
	if s.cfg.TracePath == "" {
		return
	}
	s.cfg.TracePath = ""
	if s.cfg.Frontend == core.FrontendTrace || s.cfg.Frontend == core.FrontendMemTrace {
		s.cfg.Frontend = core.FrontendExec
	}
}

// WithCustomWorkload attaches a user-built workload (see
// workloads.Custom) instead of a named one.
func WithCustomWorkload(w *Workload) Option {
	return func(s *openState) error {
		if w == nil {
			return fmt.Errorf("virtuoso: nil workload")
		}
		s.custom, s.wname, s.mix = w, w.Name(), nil
		s.displaceTrace()
		return nil
	}
}

// WithReferencePath sets the run loop's frontend batch length to one
// instruction instead of the fast lane's batch (see
// Config.ReferencePath). Both produce byte-identical Results; the knob
// exists so the equivalence is testable and a fast-lane regression can
// be bisected.
func WithReferencePath(on bool) Option {
	return func(s *openState) error {
		s.cfg.ReferencePath = on
		return nil
	}
}

// WithSeed sets the simulation seed.
func WithSeed(seed uint64) Option {
	return func(s *openState) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithMaxInstructions bounds the run to n application instructions
// (0 = run the workload to completion).
func WithMaxInstructions(n uint64) Option {
	return func(s *openState) error {
		s.cfg.MaxAppInsts = n
		return nil
	}
}

// WithFragmentation initialises physical memory with the given fraction
// of 2MB blocks unavailable, the paper's fragmentation convention
// (Table 4's baseline is 0.80). Must be in [0, 1].
func WithFragmentation(frag float64) Option {
	return func(s *openState) error {
		if !(frag >= 0 && frag <= 1) {
			return fmt.Errorf("virtuoso: fragmentation %v out of range [0, 1]", frag)
		}
		s.cfg.FragFree2M = 1 - frag
		return nil
	}
}

// WithWorkloadScale rescales the session's workload footprint (1.0 =
// the library's reference sizes). The scale is threaded through this
// session's workload construction only — no process-global state is
// touched, so sessions at different scales can be opened and run
// concurrently.
func WithWorkloadScale(scale float64) Option {
	return func(s *openState) error {
		if !(scale > 0) || math.IsInf(scale, 1) {
			return fmt.Errorf("virtuoso: workload scale %v must be positive and finite", scale)
		}
		s.params.Scale = scale
		return nil
	}
}

// WithWorkloadParams sets all workload-construction parameters at once
// (footprint scale, long-running iteration count). Zero-valued fields
// keep the library defaults. Like WithWorkloadScale, the parameters
// apply to this session only.
func WithWorkloadParams(p WorkloadParams) Option {
	return func(s *openState) error {
		if err := validateParams(p); err != nil {
			return err
		}
		s.params = p
		return nil
	}
}

// WithFrontend selects how application instructions reach the core
// model: FrontendExec (default), FrontendTrace, FrontendMemTrace, or
// FrontendEmu. The trace-driven frontends stream from a recorded file
// when one is attached with WithTrace.
func WithFrontend(f Frontend) Option {
	return func(s *openState) error {
		switch f {
		case FrontendExec, FrontendTrace, FrontendMemTrace, FrontendEmu:
			s.cfg.Frontend = f
			return nil
		}
		return fmt.Errorf("virtuoso: unknown frontend %d", f)
	}
}

// WithObserver streams interval Snapshots of the run's counters to o:
// one snapshot roughly every ObserveInterval application instructions
// (default core's DefaultObserveEvery) and a closing one, with Final
// set, when the run — Run, RunMulti or Record — completes. Observation is read-only — an observed
// run produces byte-identical results to an unobserved one — which is
// what makes progress bars, live dashboards, and early-abort heuristics
// (cancel the context from outside when an observer spots a hopeless
// trend) safe to attach. The callback runs on the simulation goroutine;
// keep it cheap.
func WithObserver(o Observer) Option {
	return func(s *openState) error {
		if o == nil {
			return fmt.Errorf("virtuoso: nil observer")
		}
		s.obs = o
		return nil
	}
}

// WithObserveInterval sets the observer snapshot interval in
// application instructions (0 keeps the default). It only has effect
// together with WithObserver.
func WithObserveInterval(every uint64) Option {
	return func(s *openState) error {
		s.obsEvery = every
		return nil
	}
}

// WithTrace replays a trace file recorded with Session.Record (or the
// `virtuoso trace record` command) instead of generating a synthetic
// workload: the session's workload becomes a trace-backed one whose
// Setup re-creates the recorded address-space layout and whose
// instruction stream is read from the file as the simulation advances —
// the whole trace is never held in memory. The frontend switches to
// FrontendTrace unless an earlier option already chose FrontendMemTrace
// (combine with WithFrontend(FrontendMemTrace) for Ramulator-style
// memory-only replay).
//
// The file is validated here, so Open reports a missing or corrupt
// trace before any simulation starts. Replaying with the same
// configuration and seed as the recording run reproduces that run's
// Result exactly (modulo host-side wall time and heap fields).
func WithTrace(path string) Option {
	return func(s *openState) error {
		w, err := trace.NewWorkload(path)
		if err != nil {
			return err
		}
		s.custom, s.wname, s.mix = w, w.Name(), nil
		s.cfg.TracePath = path
		if s.cfg.Frontend != core.FrontendMemTrace {
			s.cfg.Frontend = core.FrontendTrace
		}
		return nil
	}
}

// WithTraceStore serves the session's trace replay (WithTrace) from the
// given shared decoded-trace store instead of decoding the file
// inline: the first session replaying a trace content decodes it once,
// later sessions sharing the store stream from memory. Results are
// byte-identical either way. For whole grids, set Sweep.Traces instead.
func WithTraceStore(ts *TraceStore) Option {
	return func(s *openState) error {
		if ts == nil {
			return fmt.Errorf("virtuoso: nil trace store")
		}
		s.cfg.TraceShared = ts.shared
		return nil
	}
}
