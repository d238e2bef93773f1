// Package runner executes batches of independent simulation points on a
// bounded worker pool. It is the shared engine beneath the public Sweep
// API and the experiment harnesses: callers describe each point as a
// (core.Config, workload factory) pair and get metrics back in job
// order, regardless of the order in which workers finish.
//
// Every job builds its own core.System and workload instance, so jobs
// share no mutable state and a parallel run produces bit-identical
// metrics to a sequential run of the same jobs. Cancellation is
// cooperative and two-level: a cancelled context stops unstarted jobs
// before they build a system, and an in-flight simulation polls the
// context every few thousand instructions via core.SetCancelCheck.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/recycle"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Job is one simulation point: a full system configuration plus a
// factory producing a fresh workload instance — or, for multiprogrammed
// points, a Mix factory producing the whole process list. The factory
// is invoked inside the worker, once, so a single *Workload is never
// shared between concurrently running systems (Workload.Setup mutates
// it). Exactly one of Workload and Mix must be set.
type Job struct {
	Cfg      core.Config
	Workload func() (*workloads.Workload, error)
	// Mix, when set, runs the point through core.System.RunMulti: each
	// returned workload becomes one scheduled process. Outcome.Metrics
	// then carries the aggregate and Outcome.Multi the full breakdown.
	Mix func() ([]*workloads.Workload, error)
	// Observer, when set, receives streaming interval snapshots from
	// this job's run (core.System.SetObserver). It is invoked from the
	// worker goroutine running the job — jobs run concurrently, so an
	// observer shared between jobs must synchronise itself.
	Observer func(core.Snapshot)
	// ObserveEvery is the snapshot interval in application instructions
	// (0 = the core default). Only meaningful with Observer set.
	ObserveEvery uint64
}

// Outcome is the result of one job.
type Outcome struct {
	// Index is the job's position in the input slice.
	Index   int
	Metrics core.Metrics
	// Multi holds the per-process breakdown of a Mix job (nil for
	// single-workload jobs); Metrics is then Multi.Aggregate.
	Multi *core.MultiMetrics
	// Err is non-nil if the job's system could not be built, its
	// workload factory failed, or the run was cancelled.
	Err error
}

// Options tunes a batch run beyond the job list itself.
type Options struct {
	// Parallel bounds concurrent workers (<= 0 means GOMAXPROCS).
	Parallel int
	// NoReuse disables per-worker System pooling: every job then
	// constructs a fully fresh system, as Run always did before pooling
	// existed. Pooling is deterministic by construction (pooled systems
	// produce byte-identical results — see core.NewSystemPooled and
	// TestSweepReuseEquivalence), so this knob exists for the
	// equivalence harness itself and for memory-profiling runs, not for
	// correctness.
	NoReuse bool
	// Progress, if non-nil, is invoked once per finished job from
	// worker goroutines; calls are serialised, so the callback needs no
	// locking of its own.
	Progress func(done, total int, out Outcome)
	// Traces, when non-nil, serves trace-replay jobs (Cfg.TracePath
	// set) from a shared decoded-trace store: each distinct trace
	// content is decoded once per batch instead of once per job. A job
	// whose Cfg already carries its own store keeps it. Results are
	// byte-identical with or without the store.
	Traces *trace.Shared
}

// Run executes jobs on at most opts.Parallel concurrent workers and
// returns one Outcome per job, in job order.
//
// The first job error — or a context cancellation — stops the batch:
// running simulations are interrupted at the next cancellation poll and
// pending jobs are marked with the error context. The returned error is
// that first failure; it is nil iff every job completed.
//
// Each worker keeps a recycle.Pool and reuses the previous system's
// large allocations for the next point (see Options.NoReuse to opt
// out); results are byte-identical either way.
func Run(ctx context.Context, jobs []Job, opts Options) ([]Outcome, error) {
	progress := opts.Progress
	outs := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return outs, ctx.Err()
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(jobs) {
		parallel = len(jobs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cancelled := CancelCheck(ctx)

	var (
		mu       sync.Mutex // guards firstErr and nDone, serialises progress
		firstErr error
		nDone    int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	finish := func(out Outcome) {
		mu.Lock()
		nDone++
		d := nDone
		if progress != nil {
			progress(d, len(jobs), out)
		}
		mu.Unlock()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pool per worker goroutine: recycled allocations never
			// cross workers, so pooling adds no synchronisation and no
			// cross-job ordering sensitivity.
			var pool *recycle.Pool
			if !opts.NoReuse {
				pool = recycle.New()
			}
			for i := range idx {
				job := jobs[i]
				if opts.Traces != nil && job.Cfg.TracePath != "" && job.Cfg.TraceShared == nil {
					job.Cfg.TraceShared = opts.Traces
				}
				out := runJob(job, i, cancelled, pool)
				outs[i] = out
				if out.Err != nil {
					fail(out.Err)
				}
				finish(out)
			}
		}()
	}

feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark jobs that never reached a worker.
			for j := i; j < len(jobs); j++ {
				select {
				case idx <- j: // a worker was already waiting; let it observe ctx
				default:
					outs[j] = Outcome{Index: j, Err: ctx.Err()}
				}
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	return outs, err
}

// CancelCheck returns the poll core.System.SetCancelCheck takes: it
// reports whether ctx is done, without blocking.
func CancelCheck(ctx context.Context) func() bool {
	done := ctx.Done()
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// runJob builds and runs one point. With a non-nil pool the system is
// built from recycled allocations and harvested back into the pool when
// the point finishes — Outcomes never reference pooled memory (Metrics
// are value copies), so the harvest is safe on every path, including
// interrupted runs.
func runJob(j Job, i int, cancelled func() bool, pool *recycle.Pool) Outcome {
	if cancelled() {
		return Outcome{Index: i, Err: context.Canceled}
	}
	if j.Workload == nil && j.Mix == nil {
		return Outcome{Index: i, Err: fmt.Errorf("runner: job %d has no workload", i)}
	}
	if j.Workload != nil && j.Mix != nil {
		return Outcome{Index: i, Err: fmt.Errorf("runner: job %d sets both Workload and Mix", i)}
	}
	sys, err := core.NewSystemPooled(j.Cfg, pool)
	if err != nil {
		return Outcome{Index: i, Err: fmt.Errorf("runner: job %d config: %w", i, err)}
	}
	defer sys.Recycle(pool)
	sys.SetCancelCheck(cancelled)
	if j.Observer != nil {
		sys.SetObserver(j.Observer, j.ObserveEvery)
	}

	if j.Mix != nil {
		ws, err := j.Mix()
		if err != nil {
			return Outcome{Index: i, Err: fmt.Errorf("runner: job %d mix: %w", i, err)}
		}
		mm, err := sys.RunMulti(ws)
		if err != nil {
			return Outcome{Index: i, Err: fmt.Errorf("runner: job %d: %w", i, err)}
		}
		if sys.Interrupted() {
			return Outcome{Index: i, Err: context.Canceled}
		}
		return Outcome{Index: i, Metrics: mm.Aggregate, Multi: &mm}
	}

	w, err := j.Workload()
	if err != nil {
		return Outcome{Index: i, Err: fmt.Errorf("runner: job %d workload: %w", i, err)}
	}
	m := sys.Run(w)
	if sys.Interrupted() {
		// The run itself was stopped early; its metrics cover a
		// truncated window and must not be mistaken for a completed
		// point. A cancellation that lands only after the simulation
		// finished does NOT discard the point: the metrics are whole.
		return Outcome{Index: i, Err: context.Canceled}
	}
	return Outcome{Index: i, Metrics: m}
}
