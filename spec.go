package virtuoso

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/sweepjob"
)

// Shard names one deterministic slice of a sweep grid: shard Index of
// Count, assigned round-robin over point indices. The assignment is a
// pure function of the point index — independent of worker count,
// machine, and which other shards exist — so N processes running
// `--shard 0/N` … `--shard N-1/N` compute disjoint, exhaustive slices
// of the same grid. The zero value selects the whole grid.
type Shard = sweepjob.Shard

// ParseShard parses the "i/N" command-line shard form ("" = whole
// grid).
func ParseShard(s string) (Shard, error) { return sweepjob.ParseShard(s) }

// specVersion feeds SpecHash. Bump it whenever point enumeration,
// Result encoding, or simulation semantics change in a way that makes
// old checkpoints unresumable — the hash change makes stale files fail
// loudly instead of merging silently wrong data.
// v2: tiered-memory subsystem — tier axes join the grid, and Result
// encoding gained per-tier and swap-device counters.
const specVersion = 2

// SpecHash fingerprints everything that determines the sweep's points
// and their results: the full base configuration, the grid axes,
// workload construction params, Label, and the module's spec version.
// Two Sweeps with equal hashes enumerate identical grids and produce
// byte-identical per-point Results, so the hash is what makes resume
// and shard-merge safe: checkpoints and shard files carry it, and
// resuming against a changed grid or merging mismatched shards fails
// loudly.
//
// Parallel, Shard, Checkpoint, and the callback hooks (Configure,
// WorkloadFactory, Progress, Observe) are deliberately excluded: they
// change how the grid is executed, not what it computes. Configure and
// WorkloadFactory are function values that CAN change results — when
// using them with checkpoints or shards, set Label to something that
// identifies their behaviour so incompatible runs hash apart.
func (s *Sweep) SpecHash() string {
	payload := struct {
		Module       string         `json:"module"`
		SpecVersion  int            `json:"spec_version"`
		Base         Config         `json:"base"`
		Workloads    []string       `json:"workloads,omitempty"`
		Mixes        [][]string     `json:"mixes,omitempty"`
		Designs      []DesignName   `json:"designs,omitempty"`
		Policies     []PolicyName   `json:"policies,omitempty"`
		TierSpecs    [][]TierSpec   `json:"tier_specs,omitempty"`
		TierPolicies []string       `json:"tier_policies,omitempty"`
		Seeds        []uint64       `json:"seeds,omitempty"`
		Params       WorkloadParams `json:"params"`
		Label        string         `json:"label,omitempty"`
	}{"repro", specVersion, s.Base, s.Workloads, s.Mixes, s.Designs, s.Policies, s.TierSpecs, s.TierPolicies, s.Seeds, s.Params, s.Label}
	b, err := json.Marshal(payload)
	if err != nil {
		// Config is plain data; this is reachable only through
		// non-finite floats in the base config. Fall back to the (still
		// deterministic) Go-syntax rendering rather than failing.
		b = []byte(fmt.Sprintf("%#v", payload))
	}
	return sweepjob.Hash(b)
}

// pointKey fingerprints one fully resolved point for the
// content-addressed result cache (Sweep.Cache): the executed config
// (after grid axes and Configure), the workload or mix, the workload
// params, Label, and the spec version. Deliberately absent: grid
// position, Shard, Parallel, Checkpoint — execution shape, not results
// — so overlapping grids share entries. Like SpecHash, the key cannot
// see into a WorkloadFactory hook; Label is the escape hatch.
func pointKey(cfg Config, p Point, params WorkloadParams, label string) string {
	payload := struct {
		Module      string         `json:"module"`
		SpecVersion int            `json:"spec_version"`
		Config      Config         `json:"config"`
		Workload    string         `json:"workload,omitempty"`
		Mix         []string       `json:"mix,omitempty"`
		Params      WorkloadParams `json:"params"`
		Label       string         `json:"label,omitempty"`
	}{"repro", specVersion, cfg, p.Workload, p.Mix, params, label}
	b, err := json.Marshal(payload)
	if err != nil {
		b = []byte(fmt.Sprintf("%#v", payload))
	}
	return sweepjob.Hash(b)
}

// PointKey returns the cache key Run would use for point p: the
// introspection hook for cache management tooling (pre-warming,
// targeted invalidation). It resolves p's config exactly as Run does,
// including the Configure hook, and so can return that hook's error.
func (s *Sweep) PointKey(p Point) (string, error) {
	cfg, err := s.pointConfig(p)
	if err != nil {
		return "", err
	}
	return pointKey(cfg, p, s.Params, s.Label), nil
}

// SweepSpec is the declarative, JSON-serialisable form of a Sweep —
// what `virtuoso sweep run -spec` executes and `virtuoso sweep serve`
// accepts over HTTP or stdin. It covers the grid axes and the base-
// config knobs the CLI exposes; programmatic hooks (Configure,
// WorkloadFactory, Observe) exist only on Sweep itself.
//
// A minimal spec:
//
//	{"workloads": ["BFS", "XS"], "designs": ["radix", "ech"], "seeds": [1, 2]}
type SweepSpec struct {
	// Grid axes (Sweep.Workloads/Mixes/Designs/Policies/Seeds). At
	// least one workload or mix is required; empty Designs/Policies/
	// Seeds default to the base configuration's values.
	Workloads []string   `json:"workloads,omitempty"`
	Mixes     [][]string `json:"mixes,omitempty"`
	Designs   []string   `json:"designs,omitempty"`
	Policies  []string   `json:"policies,omitempty"`
	Seeds     []uint64   `json:"seeds,omitempty"`

	// Tiered-memory axes (Sweep.TierSpecs / Sweep.TierPolicies). Each
	// tier_specs entry is one slow-tier list; an explicit empty list is
	// the flat configuration, so a spec can compare flat vs. tiered in
	// one grid. Specs and policy names are validated here, not mid-run.
	TierSpecs    [][]TierSpec `json:"tier_specs,omitempty"`
	TierPolicies []string     `json:"tier_policies,omitempty"`

	// Workload construction params (Sweep.Params). 0 keeps defaults.
	Scale     float64 `json:"scale,omitempty"`
	LongIters int     `json:"long_iters,omitempty"`

	// Base-config overrides. FullScale starts from DefaultConfig (the
	// paper's Table 4 machine) instead of ScaledConfig; nil pointer
	// fields keep the base default. Frag is the paper-style unavailable
	// fraction of 2MB blocks (Config.FragFree2M = 1 - Frag).
	FullScale     bool     `json:"full_scale,omitempty"`
	Mode          string   `json:"mode,omitempty"`
	MaxAppInsts   *uint64  `json:"max_app_insts,omitempty"`
	Frag          *float64 `json:"frag,omitempty"`
	Seed          *uint64  `json:"seed,omitempty"`
	Quantum       uint64   `json:"quantum_cycles,omitempty"`
	CtxSwitchCost uint64   `json:"ctx_switch_cycles,omitempty"`
	ASIDRetention bool     `json:"asid_retention,omitempty"`

	// Memory sizing overrides, for consolidation/pressure scenarios
	// (undersized DRAM spilling into slow tiers or swap). PhysBytes and
	// SwapBytes are in bytes; SwapThreshold is the reclaim watermark as
	// a used fraction of DRAM. Zero/nil keep the base defaults.
	PhysBytes     uint64   `json:"phys_bytes,omitempty"`
	SwapBytes     uint64   `json:"swap_bytes,omitempty"`
	SwapThreshold *float64 `json:"swap_threshold,omitempty"`

	// Execution knobs. Shard ("i/N"), Parallel, and Cache do not affect
	// results or the spec hash; Label salts the hash (see Sweep.Label).
	// Cache names a content-addressed point-result cache directory
	// (Sweep.Cache): warm points are answered without simulating.
	Parallel int    `json:"parallel,omitempty"`
	Shard    string `json:"shard,omitempty"`
	Cache    string `json:"cache,omitempty"`
	Label    string `json:"label,omitempty"`
}

// ParseSweepSpec decodes a JSON sweep spec strictly: unknown fields are
// errors, so a typo ("desings") fails instead of silently running the
// default grid.
func ParseSweepSpec(data []byte) (*SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp SweepSpec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("virtuoso: bad sweep spec: %w", err)
	}
	// Trailing garbage after the JSON object is a malformed spec too.
	if dec.More() {
		return nil, fmt.Errorf("virtuoso: bad sweep spec: trailing data after JSON object")
	}
	return &sp, nil
}

// Sweep materialises the spec into a runnable Sweep, validating every
// name (designs, policies, mode, shard) up front.
func (sp *SweepSpec) Sweep() (*Sweep, error) {
	base := ScaledConfig()
	if sp.FullScale {
		base = DefaultConfig()
	}
	if sp.Mode != "" {
		m, err := ParseMode(sp.Mode)
		if err != nil {
			return nil, err
		}
		base.Mode = m
	}
	if sp.MaxAppInsts != nil {
		base.MaxAppInsts = *sp.MaxAppInsts
	}
	if sp.Frag != nil {
		if *sp.Frag < 0 || *sp.Frag > 1 {
			return nil, fmt.Errorf("virtuoso: spec frag %v out of range [0, 1]", *sp.Frag)
		}
		base.FragFree2M = 1 - *sp.Frag
	}
	if sp.Seed != nil {
		base.Seed = *sp.Seed
	}
	if sp.Quantum != 0 {
		base.QuantumCycles = sp.Quantum
	}
	if sp.CtxSwitchCost != 0 {
		base.CtxSwitchCycles = sp.CtxSwitchCost
	}
	base.ASIDRetention = sp.ASIDRetention
	if sp.PhysBytes != 0 {
		base.OSCfg.PhysBytes = sp.PhysBytes
	}
	if sp.SwapBytes != 0 {
		base.OSCfg.SwapBytes = sp.SwapBytes
	}
	if sp.SwapThreshold != nil {
		if *sp.SwapThreshold <= 0 || *sp.SwapThreshold > 1 {
			return nil, fmt.Errorf("virtuoso: spec swap_threshold %v out of range (0, 1]", *sp.SwapThreshold)
		}
		base.OSCfg.SwapThreshold = *sp.SwapThreshold
	}

	var designs []DesignName
	for _, d := range sp.Designs {
		dn, err := ParseDesign(d)
		if err != nil {
			return nil, err
		}
		designs = append(designs, dn)
	}
	var policies []PolicyName
	for _, p := range sp.Policies {
		pn, err := ParsePolicy(p)
		if err != nil {
			return nil, err
		}
		policies = append(policies, pn)
	}
	for i, specs := range sp.TierSpecs {
		if err := ValidateTierSpecs(specs); err != nil {
			return nil, fmt.Errorf("virtuoso: spec tier_specs[%d]: %w", i, err)
		}
	}
	var tierPolicies []string
	for _, tp := range sp.TierPolicies {
		name, err := ParseTierPolicy(tp)
		if err != nil {
			return nil, err
		}
		tierPolicies = append(tierPolicies, name)
	}
	if len(tierPolicies) > 0 && len(sp.TierSpecs) == 0 && len(base.OSCfg.Tiers) == 0 {
		return nil, fmt.Errorf("virtuoso: sweep spec sets tier_policies without tier_specs")
	}
	shard, err := ParseShard(sp.Shard)
	if err != nil {
		return nil, err
	}

	s := &Sweep{
		Base:         base,
		Workloads:    sp.Workloads,
		Mixes:        sp.Mixes,
		Designs:      designs,
		Policies:     policies,
		TierSpecs:    sp.TierSpecs,
		TierPolicies: tierPolicies,
		Seeds:        sp.Seeds,
		Params:       WorkloadParams{Scale: sp.Scale, LongIters: sp.LongIters},
		Parallel:     sp.Parallel,
		Shard:        shard,
		Cache:        sp.Cache,
		Label:        sp.Label,
	}
	if len(s.Workloads) == 0 && len(s.Mixes) == 0 {
		return nil, fmt.Errorf("virtuoso: sweep spec selects no workloads or mixes")
	}
	return s, nil
}
