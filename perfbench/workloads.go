package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	virtuoso "repro"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mimicos"
	"repro/internal/recycle"
	"repro/internal/workloads"
)

// batchLen matches the engine's fast-lane read-ahead, so the traced
// loop fills and simulates in the same block size as the untraced one.
const batchLen = 256

// pointSample is one simulated point's host latency and the share of
// it the simulation loop itself reported (Metrics.WallTime).
type pointSample struct {
	latency, simWall time.Duration
}

// opResult is what one untraced op reports to the harness.
type opResult struct {
	setup    time.Duration // the set-up step: Open, or Record on replay-grid
	simInsts uint64        // simulated app+kernel instructions
	points   []pointSample
	// digest identifies the simulated result; every repetition of the
	// op must reproduce it.
	digest string
	// counts holds each simulated run's counters in run order; the
	// traced op must reproduce them exactly.
	counts       []simCounts
	failedPoints int
}

// bench is one workload: a closed loop of identical ops.
type bench interface {
	// setup times the op's set-up step alone and discards what it built.
	setup() (time.Duration, error)
	op() (opResult, error)
	traced(log *spanLog, op int) ([]simCounts, error)
}

// sizes scales every workload; short sizes keep the self-test quick.
type sizes struct {
	execMax    uint64 // exec-xs app-instruction bound (0 = to completion)
	recordMax  uint64 // replay-grid recording length
	pointMax   uint64 // replay-grid app instructions per point
	gridSeeds  int
	gridDesign []virtuoso.DesignName
	pressMax   uint64 // os-pressure app instructions per process
	drillRecs  int    // records in the drills' VA stream window
	drillReps  int    // timed repetitions per drill
}

var fullSizes = sizes{
	execMax:    0,
	recordMax:  2_000_000,
	pointMax:   250_000,
	gridSeeds:  8,
	gridDesign: []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignECH, virtuoso.DesignHDC, virtuoso.DesignHT},
	pressMax:   800_000,
	drillRecs:  1 << 18,
	drillReps:  3,
}

var shortSizes = sizes{
	execMax:    200_000,
	recordMax:  200_000,
	pointMax:   20_000,
	gridSeeds:  1,
	gridDesign: []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignHT},
	pressMax:   250_000,
	drillRecs:  1 << 13,
	drillReps:  2,
}

// newBench builds the named workload's inputs from seed. dir is a
// private scratch directory the workload may write files into.
func newBench(name string, seed uint64, sz sizes, dir string) (bench, error) {
	switch name {
	case "exec-xs":
		return &execXS{cfg: execConfig(seed, sz), params: virtuoso.WorkloadParams{Scale: 0.1}}, nil
	case "replay-grid":
		return newReplayGrid(seed, sz, dir), nil
	case "os-pressure":
		return &osPressure{cfg: pressureConfig(seed, sz), params: virtuoso.WorkloadParams{Scale: 0.05}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: exec-xs, replay-grid, os-pressure)", name)
}

// execConfig is the exec-xs system: the scaled radix + THP machine.
func execConfig(seed uint64, sz sizes) virtuoso.Config {
	cfg := virtuoso.ScaledConfig()
	cfg.Design = virtuoso.DesignRadix
	cfg.Policy = virtuoso.PolicyTHP
	cfg.MaxAppInsts = sz.execMax
	cfg.Seed = seed
	return cfg
}

// drive runs sys over src the way the engine's batched loop does — one
// FillBatch, then the batch retired through RunSteps — until src is
// exhausted or the app-instruction bound max is reached, timing the
// two halves of every batch into fill and sim.
func drive(sys *core.System, src isa.Source, max uint64, fill, sim *accum) {
	buf := make([]isa.Inst, batchLen)
	batch := &isa.SliceSource{}
	for {
		if max > 0 && sys.Core.Stats().AppInsts >= max {
			return
		}
		t0 := time.Now()
		n := isa.FillBatch(src, buf)
		t1 := time.Now()
		fill.add(t0, t1)
		if n == 0 {
			return
		}
		batch.S = buf[:n]
		batch.Reset()
		var left uint64
		if max > 0 {
			left = max - sys.Core.Stats().AppInsts
		}
		sys.RunSteps(batch, left)
		sim.add(t1, time.Now())
	}
}

func closeSource(src isa.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// recordLoop stores a driven loop's fill and simulate aggregates.
func recordLoop(log *spanLog, op, parent int, fill, sim *accum) {
	log.record(op, parent, spanFill, fill.first, fill.last, fill.total, fill.n)
	log.record(op, parent, spanSimulate, sim.first, sim.last, sim.total, sim.n)
}

// --- exec-xs ---------------------------------------------------------

// execXS runs catalog XS execution-driven to completion: the generator
// and the translation/memory chain do almost all the work.
type execXS struct {
	cfg    virtuoso.Config
	params virtuoso.WorkloadParams
}

func (x *execXS) open() (*virtuoso.Session, error) {
	return virtuoso.Open(virtuoso.WithConfig(x.cfg), virtuoso.WithWorkloadParams(x.params), virtuoso.WithWorkload("XS"))
}

func (x *execXS) setup() (time.Duration, error) {
	t := time.Now()
	_, err := x.open()
	return time.Since(t), err
}

func (x *execXS) op() (opResult, error) {
	t0 := time.Now()
	sess, err := x.open()
	if err != nil {
		return opResult{}, err
	}
	setup := time.Since(t0)
	m, err := sess.Run()
	if err != nil {
		return opResult{}, err
	}
	lat := time.Since(t0)
	if m.Segvs != 0 {
		return opResult{}, fmt.Errorf("exec-xs: %d segvs, want 0", m.Segvs)
	}
	c := countsOf(m)
	return opResult{
		setup:    setup,
		simInsts: m.AppInsts + m.KernelInsts,
		points:   []pointSample{{latency: lat, simWall: m.WallTime}},
		digest:   digestCounts([]simCounts{c}),
		counts:   []simCounts{c},
	}, nil
}

func (x *execXS) traced(log *spanLog, op int) ([]simCounts, error) {
	root := log.begin(op, -1, spanOp)
	defer log.end(root)
	st := log.begin(op, root, spanSetup)
	w, err := virtuoso.NamedWorkloadWith("XS", x.params)
	if err != nil {
		return nil, err
	}
	b := log.begin(op, st, spanBuild)
	sys, err := core.NewSystem(x.cfg)
	log.end(b)
	log.end(st)
	if err != nil {
		return nil, err
	}
	m := runTraced(log, op, root, sys, w)
	return []simCounts{countsOf(m)}, nil
}

// runTraced drives one built system through Prepare, the batch loop
// and Collect, recording a span around each.
func runTraced(log *spanLog, op, root int, sys *core.System, w *workloads.Workload) virtuoso.Metrics {
	p := log.begin(op, root, spanPrepare)
	src := sys.Prepare(w)
	log.end(p)
	defer closeSource(src)
	var fill, sim accum
	drive(sys, src, sys.Cfg.MaxAppInsts, &fill, &sim)
	recordLoop(log, op, root, &fill, &sim)
	c := log.begin(op, root, spanCollect)
	m := sys.Collect(w)
	sys.ReleaseTransients()
	log.end(c)
	return m
}

// --- replay-grid -----------------------------------------------------

// replayGrid records a v2 trace of XS, then replays it across a
// design × policy × seed sweep.
type replayGrid struct {
	recCfg   virtuoso.Config
	base     virtuoso.Config
	params   virtuoso.WorkloadParams
	designs  []virtuoso.DesignName
	seeds    []uint64
	parallel int
	path     string
}

func newReplayGrid(seed uint64, sz sizes, dir string) *replayGrid {
	rec := virtuoso.ScaledConfig()
	rec.MaxAppInsts = sz.recordMax
	rec.Seed = seed
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = sz.pointMax
	seeds := make([]uint64, sz.gridSeeds)
	for i := range seeds {
		seeds[i] = seed*1000 + uint64(i) + 1
	}
	return &replayGrid{
		recCfg: rec, base: base, params: virtuoso.WorkloadParams{Scale: 0.1},
		designs: sz.gridDesign, seeds: seeds,
		parallel: runtime.NumCPU(),
		path:     filepath.Join(dir, "xs.trc"),
	}
}

// record writes the op's trace: the replay-grid set-up step.
func (g *replayGrid) record() (virtuoso.Metrics, error) {
	sess, err := virtuoso.Open(virtuoso.WithConfig(g.recCfg), virtuoso.WithWorkloadParams(g.params), virtuoso.WithWorkload("XS"))
	if err != nil {
		return virtuoso.Metrics{}, err
	}
	m, _, err := sess.Record(g.path)
	return m, err
}

// sweep is the grid without per-op hooks. It deliberately leaves
// Sweep.Traces unset: the shared store cannot open traces larger than
// one block, and its Must-open would panic inside a point.
func (g *replayGrid) sweep() *virtuoso.Sweep {
	return &virtuoso.Sweep{
		Base:      g.base,
		Workloads: []string{"XS"},
		Designs:   g.designs,
		Policies:  []virtuoso.PolicyName{virtuoso.PolicyTHP, virtuoso.PolicyBuddy},
		Seeds:     g.seeds,
		Parallel:  g.parallel,
		Configure: func(cfg *virtuoso.Config, _ virtuoso.Point) error {
			cfg.TracePath = g.path
			cfg.Frontend = virtuoso.FrontendTrace
			return nil
		},
	}
}

// pointConfig resolves a grid point's configuration the way Sweep.Run
// does.
func (g *replayGrid) pointConfig(p virtuoso.Point) virtuoso.Config {
	cfg := g.base
	cfg.Design, cfg.Policy, cfg.Seed = p.Design, p.Policy, p.Seed
	cfg.TracePath = g.path
	cfg.Frontend = virtuoso.FrontendTrace
	return cfg
}

func (g *replayGrid) setup() (time.Duration, error) {
	t := time.Now()
	_, err := g.record()
	return time.Since(t), err
}

func (g *replayGrid) op() (opResult, error) {
	t0 := time.Now()
	recM, err := g.record()
	if err != nil {
		return opResult{}, fmt.Errorf("record: %w", err)
	}
	res := opResult{setup: time.Since(t0)}

	var mu sync.Mutex
	starts := map[int]time.Time{}
	sw := g.sweep()
	sw.WorkloadFactory = func(p virtuoso.Point) (*virtuoso.Workload, error) {
		mu.Lock()
		starts[p.Index] = time.Now()
		mu.Unlock()
		return virtuoso.TraceWorkload(g.path)
	}
	sw.Progress = func(ev virtuoso.SweepEvent) {
		now := time.Now()
		if ev.Err != nil {
			res.failedPoints++
			return
		}
		mu.Lock()
		st := starts[ev.Point.Index]
		mu.Unlock()
		res.points = append(res.points, pointSample{latency: now.Sub(st), simWall: ev.Metrics.WallTime})
	}
	rep, err := sw.Run(context.Background())
	if err != nil {
		return res, fmt.Errorf("sweep: %w", err)
	}
	if want := len(sw.Points()); len(rep.Results) != want {
		return res, fmt.Errorf("sweep: %d results, want %d", len(rep.Results), want)
	}
	canon, err := rep.CanonicalJSON()
	if err != nil {
		return res, err
	}
	res.digest = digestBytes(canon)
	res.counts = append(res.counts, countsOf(recM))
	res.simInsts = recM.AppInsts + recM.KernelInsts
	for _, r := range rep.Results {
		res.counts = append(res.counts, countsOf(r.Metrics))
		res.simInsts += r.Metrics.AppInsts + r.Metrics.KernelInsts
	}
	return res, nil
}

// traced replays the grid's points on the same number of workers,
// each point through NewSystemPooled, Prepare, the batch loop and
// Collect, as the sweep runner does.
func (g *replayGrid) traced(log *spanLog, op int) ([]simCounts, error) {
	root := log.begin(op, -1, spanOp)
	defer log.end(root)
	st := log.begin(op, root, spanSetup)
	recM, err := g.record()
	log.end(st)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	pts := g.sweep().Points()
	counts := make([]simCounts, len(pts))
	errs := make([]error, len(pts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := recycle.New()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pts) {
					return
				}
				counts[i], errs[i] = g.tracedPoint(log, op, root, pts[i], pool)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return append([]simCounts{countsOf(recM)}, counts...), nil
}

func (g *replayGrid) tracedPoint(log *spanLog, op, root int, p virtuoso.Point, pool *recycle.Pool) (c simCounts, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced point %d panicked: %v", p.Index, r)
		}
	}()
	b := log.begin(op, root, spanBuild)
	sys, err := core.NewSystemPooled(g.pointConfig(p), pool)
	log.end(b)
	if err != nil {
		return simCounts{}, err
	}
	defer sys.Recycle(pool)
	w, err := virtuoso.TraceWorkload(g.path)
	if err != nil {
		return simCounts{}, err
	}
	return countsOf(runTraced(log, op, root, sys, w)), nil
}

// --- os-pressure -----------------------------------------------------

// osPressure runs a four-process mix on undersized DRAM over a CXL+NVM
// hierarchy small enough that the slowest tier cascades into swap.
type osPressure struct {
	cfg    virtuoso.Config
	params virtuoso.WorkloadParams
}

var pressureMix = []string{"RND", "SEQ", "BFS", "XS"}

func pressureConfig(seed uint64, sz sizes) virtuoso.Config {
	cfg := virtuoso.ScaledConfig()
	cfg.Policy = virtuoso.PolicyBuddy
	cfg.MaxAppInsts = sz.pressMax
	cfg.OSCfg.PhysBytes = 24 << 20
	cfg.OSCfg.SwapBytes = 512 << 20
	cfg.OSCfg.SwapThreshold = 0.5
	cfg.OSCfg.Tiers = []virtuoso.TierSpec{
		{Name: "cxl", Bytes: 4 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
		{Name: "nvm", Bytes: 8 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
	}
	cfg.Seed = seed
	return cfg
}

func mixCounts(mm virtuoso.MultiMetrics) simCounts {
	c := countsOf(mm.Aggregate)
	c.CtxSwitches = mm.ContextSwitches
	return c
}

func (o *osPressure) open() (*virtuoso.Session, error) {
	return virtuoso.Open(virtuoso.WithConfig(o.cfg), virtuoso.WithWorkloadParams(o.params), virtuoso.WithProcesses(pressureMix...))
}

func (o *osPressure) setup() (time.Duration, error) {
	t := time.Now()
	_, err := o.open()
	return time.Since(t), err
}

func (o *osPressure) op() (opResult, error) {
	t0 := time.Now()
	sess, err := o.open()
	if err != nil {
		return opResult{}, err
	}
	setup := time.Since(t0)
	mm, err := sess.RunMulti()
	if err != nil {
		return opResult{}, err
	}
	lat := time.Since(t0)
	m := mm.Aggregate
	if m.OS.Demotions == 0 || m.OS.Promotions == 0 || m.OS.SwapOuts == 0 {
		return opResult{}, fmt.Errorf("os-pressure: demotions %d, promotions %d, swap-outs %d: all must be > 0",
			m.OS.Demotions, m.OS.Promotions, m.OS.SwapOuts)
	}
	c := mixCounts(mm)
	return opResult{
		setup:    setup,
		simInsts: m.AppInsts + m.KernelInsts,
		points:   []pointSample{{latency: lat, simWall: m.WallTime}},
		digest:   digestCounts([]simCounts{c}),
		counts:   []simCounts{c},
	}, nil
}

// traced wraps each process's workload so that its address-space
// set-up and every batch its source fills are timed from outside
// RunMulti; the rest of RunMulti is simulation, except the tail after
// the last fill, which is counted as collect.
func (o *osPressure) traced(log *spanLog, op int) ([]simCounts, error) {
	root := log.begin(op, -1, spanOp)
	defer log.end(root)
	st := log.begin(op, root, spanSetup)
	ws, err := virtuoso.NamedMixWith(pressureMix, o.params)
	if err != nil {
		return nil, err
	}
	var prep time.Duration
	var fill accum
	for i, w := range ws {
		ws[i] = timedWorkload(w, &prep, &fill)
	}
	b := log.begin(op, st, spanBuild)
	sys, err := core.NewSystem(o.cfg)
	log.end(b)
	log.end(st)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	mm, err := sys.RunMulti(ws)
	t1 := time.Now()
	sys.ReleaseTransients()
	if err != nil {
		return nil, err
	}
	collect := t1.Sub(fill.last)
	log.record(op, root, spanPrepare, t0, t0.Add(prep), prep, len(ws))
	log.record(op, root, spanFill, fill.first, fill.last, fill.total, fill.n)
	log.record(op, root, spanSimulate, t0, fill.last, t1.Sub(t0)-prep-fill.total-collect, 1)
	log.record(op, root, spanCollect, fill.last, t1, collect, 1)
	return []simCounts{mixCounts(mm)}, nil
}

// timedWorkload wraps w so that Setup time accumulates into prep and
// every source read into fill. The stream and layout are w's own, so
// the simulation is unchanged.
func timedWorkload(w *workloads.Workload, prep *time.Duration, fill *accum) *workloads.Workload {
	return workloads.CustomSource(w.Name(), w.Class(), w.FootprintBytes(),
		func(_ *workloads.Workload, k *mimicos.Kernel, pid int) {
			t := time.Now()
			w.Setup(k, pid)
			*prep += time.Since(t)
		},
		func(_ *workloads.Workload, seed uint64) isa.Source {
			return &timedSource{inner: w.Source(seed), fill: fill}
		})
}

// timedSource times every read of its inner source.
type timedSource struct {
	inner isa.Source
	fill  *accum
}

func (s *timedSource) Next(out *isa.Inst) bool {
	t := time.Now()
	ok := s.inner.Next(out)
	s.fill.add(t, time.Now())
	return ok
}

func (s *timedSource) NextBatch(out []isa.Inst) int {
	t := time.Now()
	n := isa.FillBatch(s.inner, out)
	s.fill.add(t, time.Now())
	return n
}

func (s *timedSource) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// removeAll deletes a scratch directory, reporting failure on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
