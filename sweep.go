package virtuoso

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sweepjob"
	"repro/internal/workloads"
)

// Point is one cell of a sweep's (workloads × designs × policies ×
// seeds) grid. Index is the cell's position in Points() order and is
// stable across runs of the same grid, so per-point seeds and results
// are deterministic regardless of worker scheduling.
type Point struct {
	Index    int
	Workload string
	Design   DesignName
	Policy   PolicyName
	Seed     uint64
	// Mix lists the process workloads of a multiprogrammed point
	// (Sweep.Mixes); Workload is then the "+"-joined mix name. Nil for
	// single-workload points.
	Mix []string
	// Tiers / TierPolicy are the point's tiered-memory cell
	// (Sweep.TierSpecs / Sweep.TierPolicies). Nil/empty means the base
	// configuration's values.
	Tiers      []TierSpec
	TierPolicy string
}

// SweepEvent reports one finished point to a progress callback.
type SweepEvent struct {
	Point Point
	// Done counts points complete so far in this run's slice of the
	// grid — including points restored from the checkpoint, which are
	// complete before the first worker starts. Total is the number of
	// points this run covers: the grid size, or the shard's share when
	// Sweep.Shard is set.
	Done, Total int
	// Metrics is nil when the point failed or was cancelled, in which
	// case Err says why.
	Metrics *Metrics
	// Result is the point's full outcome — the configuration echo plus
	// Metrics and, for mix points, the per-process breakdown — exactly
	// what the final Report will contain for this point. Nil when Err
	// is set. Streaming consumers (`virtuoso sweep serve`) forward it
	// verbatim so clients never wait for the sweep to finish.
	Result *Result
	// FromCache marks a point answered by the content-addressed result
	// cache (Sweep.Cache) instead of being simulated. Cache-hit events
	// fire in point order before the first worker starts.
	FromCache bool
	Err       error
}

// Sweep expands a design-space grid into run points and executes them
// on a bounded worker pool. Every point runs in a fully isolated system
// (own MimicOS, own workload instance), so a parallel sweep produces
// bit-identical per-point metrics to a sequential run of the same grid.
//
// The zero value is not runnable: set Base (usually DefaultConfig or
// ScaledConfig) and at least one workload name. Empty Designs,
// Policies, or Seeds axes default to the corresponding Base field, so
// the grid size is max(1,len(Workloads)) × max(1,len(Designs)) ×
// max(1,len(Policies)) × max(1,len(Seeds)).
type Sweep struct {
	// Base is the configuration every point starts from.
	Base Config

	// Grid axes. Workloads (or Mixes) is required; the others default
	// to Base's design, policy, and seed.
	Workloads []string
	Designs   []DesignName
	Policies  []PolicyName
	Seeds     []uint64

	// Mixes is the multiprogrammed workload axis: each entry is one
	// process list, run through the MimicOS scheduler (RunMulti) with
	// Base's quantum/ASID-retention settings. Mixes entries join the
	// Workloads entries on the same axis, so a sweep can compare
	// single-process and multiprogrammed points in one grid.
	Mixes [][]string

	// TierSpecs is the tiered-memory configuration axis: each entry is
	// one slow-tier list (nil = flat DRAM + swap), applied to the
	// point's Config.OSCfg.Tiers. TierPolicies is the migration-policy
	// axis over built-in and ext-registered names. Empty axes default
	// to the base configuration's values, like Designs/Policies. Flat
	// entries ignore the policy axis (a migration policy is meaningless
	// without tiers), so a grid mixing flat and tiered cells with N
	// policies runs the flat cell N identical times.
	TierSpecs    [][]TierSpec
	TierPolicies []string

	// Params configures catalog workload construction (footprint scale,
	// long-running iteration count) for every point. It is threaded
	// through the per-worker workload lookups, so two sweeps with
	// different Params can run concurrently — unlike the deprecated
	// SetWorkloadScale global. Zero-valued fields keep the defaults.
	Params WorkloadParams

	// Parallel bounds the worker pool (<= 0 means GOMAXPROCS).
	Parallel int

	// Configure, if non-nil, mutates each point's config after the grid
	// fields are applied — the hook for per-point state the axes cannot
	// express (Utopia RestSeg geometry, fragmentation levels, ...).
	Configure func(cfg *Config, p Point) error

	// WorkloadFactory, if non-nil, builds each point's workload instead
	// of the named-catalog lookup — the hook for custom workloads. It
	// must return a fresh instance per call: workload state is mutated
	// during a run and must not be shared between concurrent points.
	WorkloadFactory func(p Point) (*Workload, error)

	// Progress, if non-nil, is called once per finished point. Calls
	// are serialised; the callback needs no locking.
	Progress func(SweepEvent)

	// Observe, if non-nil, builds a streaming Observer for each point
	// (nil return = that point runs unobserved). Unlike Progress, which
	// fires once per *finished* point, an Observer streams interval
	// Snapshots *during* the point's run — the hook for live progress
	// displays over long simulations. Points run concurrently, so an
	// observer shared across points must synchronise itself; observers
	// never perturb results (an observed sweep is byte-identical to an
	// unobserved one).
	Observe func(p Point) Observer

	// Shard restricts the run to one deterministic slice of the grid
	// (the zero value runs everything). Point enumeration and per-point
	// results are unaffected — shard i of N simply executes the points
	// with Index ≡ i (mod N) — so N shard runs on N machines partition
	// the grid disjointly and exhaustively, and their checkpoint files
	// merge (MergeCheckpoints, `virtuoso sweep merge`) into the exact
	// Report an unsharded run would have produced.
	Shard Shard

	// Checkpoint, when non-empty, persists every completed point's
	// Result to this JSONL file as it lands (fsync-batched) and, when
	// the file already exists, resumes: completed points are restored
	// from disk instead of re-simulated, so an interrupted sweep —
	// context cancel, SIGINT, or crash — loses at most the points that
	// were in flight. The file is stamped with SpecHash(); resuming
	// with a changed grid, params, or base config fails loudly. A tail
	// record torn by a crash is dropped and that point re-runs.
	//
	// Configure and WorkloadFactory hooks are not hashable — when they
	// affect results, set Label so incompatible runs cannot resume each
	// other's checkpoints.
	Checkpoint string

	// Cache, when non-empty, names a directory used as a
	// content-addressed point-result cache. Before a point is
	// scheduled, its key — a hash of the fully resolved per-point
	// Config (after the grid axes and Configure are applied), the
	// workload or mix, Params, Label, and the spec version — is looked
	// up; a hit restores the Result without simulating, a fresh result
	// is written back after the point completes. Keys are independent
	// of grid position, Shard, and Parallel, so repeated, overlapping,
	// and served sweeps share entries. Unlike Checkpoint, which is
	// stamped with this sweep's SpecHash, the cache is shared across
	// sweeps — and, like SpecHash, the key cannot see into a
	// WorkloadFactory hook: set Label when such hooks change results.
	// See docs/sweep-service.md for key semantics and invalidation.
	Cache string

	// Traces, when non-nil, serves every trace-replay point
	// (Configure hooks setting Config.TracePath) from a shared
	// decoded-trace store: each distinct trace content is decoded once
	// for the whole grid and every other point replays the in-memory
	// copy. Purely an execution detail — results, SpecHash, and cache
	// keys are unaffected — so sweeps may add, drop, or resize the
	// store freely between runs. See NewTraceStore.
	Traces *TraceStore

	// NoReuse disables per-worker System pooling, forcing fresh
	// construction for every point. Pooling changes only memory
	// provenance, never results (TestSweepReuseEquivalence); the knob
	// exists for that harness and for memory profiling.
	NoReuse bool

	// Label is an opaque salt mixed into SpecHash — the escape hatch
	// for sweeps whose Configure/WorkloadFactory hooks change results
	// in ways the declarative fields cannot express.
	Label string
}

// Points expands the grid in deterministic order: workloads (then
// mixes) outermost, then designs, policies, and seeds.
func (s *Sweep) Points() []Point {
	designs := axisOr(s.Designs, s.Base.Design)
	policies := axisOr(s.Policies, s.Base.Policy)
	seeds := axisOr(s.Seeds, s.Base.Seed)
	tierSpecs := axisOr(s.TierSpecs, s.Base.OSCfg.Tiers)
	tierPolicies := axisOr(s.TierPolicies, s.Base.OSCfg.TierPolicy)
	type wl struct {
		name string
		mix  []string
	}
	axis := make([]wl, 0, len(s.Workloads)+len(s.Mixes))
	for _, w := range s.Workloads {
		axis = append(axis, wl{name: w})
	}
	for _, mix := range s.Mixes {
		axis = append(axis, wl{name: core.MixName(mix), mix: mix})
	}
	pts := make([]Point, 0, len(axis)*len(designs)*len(policies)*len(tierSpecs)*len(tierPolicies)*len(seeds))
	for _, w := range axis {
		for _, d := range designs {
			for _, p := range policies {
				for _, ts := range tierSpecs {
					for _, tp := range tierPolicies {
						for _, seed := range seeds {
							pts = append(pts, Point{
								Index: len(pts), Workload: w.name, Mix: w.mix,
								Design: d, Policy: p, Tiers: ts, TierPolicy: tp, Seed: seed,
							})
						}
					}
				}
			}
		}
	}
	return pts
}

// axisOr returns axis, or the one-cell axis holding the base value
// when axis is empty.
func axisOr[T any](axis []T, base T) []T {
	if len(axis) == 0 {
		return []T{base}
	}
	return axis
}

// Run executes the grid — or, with Shard set, this shard's slice of it
// — and returns a Report with one Result per completed point, in
// Points() order.
//
// Cancellation semantics: the first point failure — or a ctx
// cancellation, which interrupts in-flight simulations within a few
// thousand simulated instructions — stops the sweep, and Run returns
// the partial report alongside the error. Every point that completed
// before the stop is in the report (and, with Checkpoint set, already
// durable on disk); only in-flight and never-started points are
// missing, because a truncated simulation's metrics are meaningless
// and are discarded rather than reported.
func (s *Sweep) Run(ctx context.Context) (*Report, error) {
	pts := s.Points()
	if len(pts) == 0 {
		return nil, fmt.Errorf("virtuoso: empty sweep (set Sweep.Workloads or Sweep.Mixes)")
	}
	if err := validateParams(s.Params); err != nil {
		return nil, err
	}
	if err := s.Shard.Validate(); err != nil {
		return nil, err
	}
	hash := s.SpecHash()
	sel := s.Shard.Select(len(pts))
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	l := &landing{
		s: s, pts: pts, total: len(sel), cancel: cancelRun,
		results: make(map[int]Result, len(sel)),
	}
	defer func() {
		if l.ckpt != nil {
			l.ckpt.Close()
		}
	}()

	// Open the checkpoint (creating or resuming) and restore completed
	// points. The header carries the spec hash, so resuming a changed
	// sweep fails here rather than mixing grids.
	if s.Checkpoint != "" {
		w, raw, err := sweepjob.OpenWriter(s.Checkpoint, sweepjob.Header{
			SpecHash: hash, Points: len(pts), Shard: s.Shard.String(),
		}, 0)
		if err != nil {
			return nil, err
		}
		l.ckpt = w
		for idx, rawRes := range raw {
			if !s.Shard.Assign(idx) {
				return nil, fmt.Errorf("virtuoso: checkpoint %s holds point %d, which is outside shard %s", s.Checkpoint, idx, s.Shard)
			}
			var r Result
			if err := json.Unmarshal(rawRes, &r); err != nil {
				return nil, fmt.Errorf("virtuoso: checkpoint %s: point %d: %w", s.Checkpoint, idx, err)
			}
			l.land(idx, restored, r, "", nil)
		}
	}
	if s.Cache != "" {
		c, err := sweepjob.OpenCache(s.Cache)
		if err != nil {
			return nil, err
		}
		l.cache = c
	}

	// Build jobs for the points still pending in this shard. A cache
	// lookup needs the point's fully resolved config, so each point is
	// resolved first and, on a hit, lands here — in point order, before
	// the first worker starts. pending maps job position back to point
	// index; keys holds each scheduled point's cache key.
	pending := make([]int, 0, len(sel))
	keys := make([]string, 0, len(sel))
	jobs := make([]runner.Job, 0, len(sel))
	for _, idx := range sel {
		if _, ok := l.results[idx]; ok {
			continue
		}
		p := pts[idx]
		cfg, err := s.pointConfig(p)
		if err != nil {
			return nil, fmt.Errorf("virtuoso: point %d (%s/%s/%s): %w", p.Index, p.Workload, p.Design, p.Policy, err)
		}
		var key string
		if l.cache != nil {
			key = pointKey(cfg, p, s.Params, s.Label)
			if raw, ok := l.cache.Get(key); ok {
				var r Result
				if err := json.Unmarshal(raw, &r); err == nil {
					// Cache entries are shared across grids, so the
					// stored index is whatever grid wrote the entry;
					// restore this grid's position.
					r.Index = idx
					l.land(idx, cached, r, "", nil)
					if l.err != nil {
						return nil, l.err
					}
					continue
				}
				// An entry that does not decode is a miss: simulate,
				// and landing the point rewrites it.
			}
		}
		job := runner.Job{Cfg: cfg}
		if p.Mix != nil {
			job.Mix = s.mixFactory(p)
		} else {
			job.Workload = s.workloadFactory(p)
		}
		if s.Observe != nil {
			if obs := s.Observe(p); obs != nil {
				job.Observer = obs.Observe
			}
		}
		pending = append(pending, idx)
		keys = append(keys, key)
		jobs = append(jobs, job)
	}

	start := time.Now()
	ropts := runner.Options{
		Parallel: s.Parallel, NoReuse: s.NoReuse,
		Progress: func(_, _ int, out runner.Outcome) {
			idx := pending[out.Index]
			l.land(idx, simulated, resultOf(idx, pts[idx].Workload, jobs[out.Index].Cfg, out), keys[out.Index], out.Err)
		},
	}
	if s.Traces != nil {
		ropts.Traces = s.Traces.shared
	}
	_, err := runner.Run(runCtx, jobs, ropts)

	rep := &Report{
		Points: len(pts), SpecHash: hash, Shard: s.Shard.String(), Wall: time.Since(start),
		Executed: l.landed[simulated], FromCache: l.landed[cached], FromCheckpoint: l.landed[restored],
	}
	for _, idx := range sel {
		if r, ok := l.results[idx]; ok {
			rep.Results = append(rep.Results, r)
		}
	}
	// Make the checkpoint durable before reporting success or failure.
	if l.ckpt != nil {
		l.closeCheckpoint(nil)
	}
	return rep, cmp.Or(l.err, err)
}

// source says where a completed point's Result came from.
type source int

const (
	restored  source = iota // the resume checkpoint
	cached                  // the result cache
	simulated               // a worker
)

// landing is the one step every completed point of a Sweep.Run goes
// through, whatever answered it: the checkpoint (restored), the cache
// (cached), or a worker (simulated). Workers land their points under
// the runner's progress lock, so landing needs no lock of its own; Run
// reads it only after the runner returns.
type landing struct {
	s       *Sweep
	pts     []Point
	total   int              // points this run covers
	ckpt    *sweepjob.Writer // nil without a checkpoint, or once it failed
	cache   *sweepjob.Cache  // nil without a cache, or once it failed
	cancel  context.CancelFunc
	results map[int]Result
	landed  [3]int // completed points per source
	done    int    // points landed so far, failed ones included
	// err is the first write failure (disk full, volume gone). It
	// stops the sweep, because continuing would report results the
	// resume file never saw, or leave cold a cache the run was told to
	// warm. The failed sink takes no more writes, and a checkpoint
	// failure outranks a cache failure.
	err error
}

// land records point idx's Result, persists it — to the checkpoint
// unless it came from there, to the cache under key when key is set —
// and reports the point to Progress, except a restored one, which was
// complete before this run started. A failed point (err set) is only
// reported.
func (l *landing) land(idx int, from source, res Result, key string, err error) {
	l.done++
	if err == nil {
		l.results[idx] = res
		l.landed[from]++
		if from != restored {
			l.persist(idx, res, key)
		}
	}
	if l.s.Progress != nil && from != restored {
		ev := SweepEvent{Point: l.pts[idx], Done: l.done, Total: l.total, FromCache: from == cached, Err: err}
		if err == nil {
			r := res // the callback's own copy
			ev.Metrics, ev.Result = &r.Metrics, &r
		}
		l.s.Progress(ev)
	}
}

func (l *landing) persist(idx int, res Result, key string) {
	put := key != "" && l.cache != nil
	if l.ckpt == nil && !put {
		return
	}
	raw, merr := json.Marshal(res)
	if l.ckpt != nil {
		err := merr
		if err == nil {
			err = l.ckpt.Append(idx, raw)
		}
		if err != nil {
			l.closeCheckpoint(err)
			l.cancel()
		}
	}
	if put {
		err := merr
		if err == nil {
			err = l.cache.Put(key, raw)
		}
		if err != nil {
			l.cache = nil
			if l.err == nil {
				l.err = fmt.Errorf("virtuoso: sweep cache %s: %w", l.s.Cache, err)
			}
			l.cancel()
		}
	}
}

// closeCheckpoint closes the checkpoint, making what it holds durable,
// and records err — or, when err is nil, the Close error — as the
// checkpoint's failure.
func (l *landing) closeCheckpoint(err error) {
	if cerr := l.ckpt.Close(); err == nil {
		err = cerr
	}
	l.ckpt = nil
	if err != nil {
		l.err = fmt.Errorf("virtuoso: sweep checkpoint %s: %w", l.s.Checkpoint, err)
	}
}

// pointConfig resolves point p's config: Base with p's axes applied,
// then the Configure hook. Run and PointKey both resolve through it, so
// a point's cache key always names the entry Run reads and writes.
func (s *Sweep) pointConfig(p Point) (Config, error) {
	cfg := s.Base
	cfg.Design = p.Design
	cfg.Policy = p.Policy
	cfg.Seed = p.Seed
	cfg.OSCfg.Tiers = p.Tiers
	cfg.OSCfg.TierPolicy = p.TierPolicy
	if len(cfg.OSCfg.Tiers) == 0 {
		// A flat cell of the tier axis ignores the policy axis: a
		// migration policy is meaningless without tiers, and leaving
		// it set would fail engine validation.
		cfg.OSCfg.TierPolicy = ""
	}
	if s.Configure != nil {
		if err := s.Configure(&cfg, p); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// resultOf packages a run's outcome with the configuration echo that
// identifies it. It echoes the executed config, not a grid point: a
// sweep's Configure hook may have overridden design, policy, or seed.
// TierPolicy names the migration policy the config ran with — empty for
// flat configs, the default name when tiers are set without an explicit
// policy.
func resultOf(index int, workload string, cfg Config, out runner.Outcome) Result {
	r := Result{
		Index:    index,
		Workload: workload,
		Design:   cfg.Design,
		Policy:   cfg.Policy,
		Mode:     cfg.Mode.String(),
		Seed:     cfg.Seed,
		Metrics:  out.Metrics,
		Multi:    out.Multi,
	}
	if len(cfg.OSCfg.Tiers) > 0 {
		r.TierPolicy = cmp.Or(cfg.OSCfg.TierPolicy, TierPolicyHotCold)
	}
	return r
}

// workloadFactory returns the per-point workload constructor, deferring
// catalog lookups to run time so each point gets a fresh instance.
func (s *Sweep) workloadFactory(p Point) func() (*Workload, error) {
	if s.WorkloadFactory != nil {
		return func() (*Workload, error) { return s.WorkloadFactory(p) }
	}
	name, params := p.Workload, s.Params
	return func() (*Workload, error) { return NamedWorkloadWith(name, params) }
}

// mixFactory returns the per-point process-list constructor for a
// multiprogrammed point. Each call builds fresh workload instances, so
// concurrent points never share mutable workload state.
func (s *Sweep) mixFactory(p Point) func() ([]*workloads.Workload, error) {
	names, params := p.Mix, s.Params
	return func() ([]*workloads.Workload, error) { return NamedMixWith(names, params) }
}
