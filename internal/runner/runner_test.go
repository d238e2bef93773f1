package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func tinyJob(seed uint64) Job {
	cfg := core.DefaultConfig()
	cfg.MaxAppInsts = 50_000
	cfg.Seed = seed
	return Job{
		Cfg: cfg,
		Workload: func() (*workloads.Workload, error) {
			w, _ := workloads.ByNameWith("2D-Sum", workloads.Params{Scale: 0.05})
			return w, nil
		},
	}
}

func tinyMixJob(seed uint64) Job {
	j := tinyJob(seed)
	j.Workload = nil
	j.Mix = func() ([]*workloads.Workload, error) {
		a, _ := workloads.ByNameWith("2D-Sum", workloads.Params{Scale: 0.05})
		b, _ := workloads.ByNameWith("RND", workloads.Params{Scale: 0.05})
		return []*workloads.Workload{a, b}, nil
	}
	return j
}

func TestRunEmpty(t *testing.T) {
	outs, err := Run(context.Background(), nil, Options{Parallel: 4})
	if err != nil || len(outs) != 0 {
		t.Fatalf("Run(empty) = %v, %v", outs, err)
	}
}

func TestRunOrderAndProgress(t *testing.T) {
	jobs := []Job{tinyJob(1), tinyJob(2), tinyJob(3)}
	var events int
	outs, err := Run(context.Background(), jobs, Options{Parallel: 3, Progress: func(done, total int, out Outcome) {
		events++
		if total != 3 || done < 1 || done > 3 {
			t.Errorf("progress done=%d total=%d", done, total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if events != 3 {
		t.Errorf("got %d progress events, want 3", events)
	}
	for i, out := range outs {
		if out.Index != i {
			t.Errorf("outcome %d has index %d", i, out.Index)
		}
		if out.Err != nil || out.Metrics.AppInsts == 0 {
			t.Errorf("outcome %d: err=%v insts=%d", i, out.Err, out.Metrics.AppInsts)
		}
	}
}

// TestRunCancelMidMulti interrupts a multiprogrammed point from inside
// its own run: the job's Observer cancels the batch context at the
// first interval snapshot, and the in-flight RunMulti must stop at the
// next cancellation poll rather than complete the truncated point.
func TestRunCancelMidMulti(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	j := tinyMixJob(1)
	j.Cfg.MaxAppInsts = 2_000_000
	j.ObserveEvery = 5_000
	j.Observer = func(core.Snapshot) { cancel() }

	outs, err := Run(ctx, []Job{j, tinyMixJob(2)}, Options{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if !errors.Is(outs[0].Err, context.Canceled) {
		t.Errorf("interrupted mix job err = %v, want context.Canceled", outs[0].Err)
	}
	if outs[0].Multi != nil {
		t.Error("interrupted mix job must not report a per-process breakdown")
	}
	if outs[1].Err == nil {
		t.Error("job behind the cancellation should carry the cancel error")
	}
}

// TestRunObserverThroughPooledWorkers pins that the streaming Observer
// and the per-worker System pooling compose: every job run on a pooled
// worker still streams its own snapshots, and the metrics match a
// NoReuse batch of the same jobs exactly.
func TestRunObserverThroughPooledWorkers(t *testing.T) {
	const n = 4
	makeJobs := func(counts []int) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			i := i
			jobs[i] = tinyJob(uint64(i + 1))
			jobs[i].ObserveEvery = 10_000
			jobs[i].Observer = func(core.Snapshot) { counts[i]++ }
		}
		return jobs
	}

	// Parallel 1 forces all four jobs through one worker's pool, the
	// shape where stale recycled state would leak between points.
	pooledCounts := make([]int, n)
	pooled, err := Run(context.Background(), makeJobs(pooledCounts), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	freshCounts := make([]int, n)
	fresh, err := Run(context.Background(), makeJobs(freshCounts), Options{Parallel: 1, NoReuse: true})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if pooledCounts[i] == 0 {
			t.Errorf("job %d on a pooled worker streamed no snapshots", i)
		}
		if pooledCounts[i] != freshCounts[i] {
			t.Errorf("job %d: %d snapshots pooled vs %d fresh", i, pooledCounts[i], freshCounts[i])
		}
		// WallTime and SimHeapBytes measure the host, not the simulated
		// machine (Report.CanonicalJSON zeroes them for the same reason).
		p, f := pooled[i].Metrics, fresh[i].Metrics
		p.WallTime, f.WallTime = 0, 0
		p.SimHeapBytes, f.SimHeapBytes = 0, 0
		if !reflect.DeepEqual(p, f) {
			t.Errorf("job %d: pooled metrics differ from fresh", i)
		}
	}
}

// TestRunMixFactoryError pins the Mix-factory failure path: the error is
// attributed to the job, wrapped with its index, and stops the batch.
func TestRunMixFactoryError(t *testing.T) {
	boom := errors.New("boom")
	bad := tinyMixJob(1)
	bad.Mix = func() ([]*workloads.Workload, error) { return nil, boom }

	outs, err := Run(context.Background(), []Job{bad, tinyJob(2)}, Options{Parallel: 1})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "job 0 mix") {
		t.Fatalf("Run = %v, want wrapped mix factory error", err)
	}
	if !errors.Is(outs[0].Err, boom) {
		t.Errorf("bad job err = %v, want boom", outs[0].Err)
	}
	if outs[1].Err == nil {
		t.Error("job behind the mix failure should carry the stop error")
	}
}

func TestRunBadConfigStopsBatch(t *testing.T) {
	bad := tinyJob(1)
	bad.Cfg.Policy = "no-such-policy"
	jobs := []Job{bad, tinyJob(2)}
	outs, err := Run(context.Background(), jobs, Options{Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Fatalf("Run = %v, want unknown-policy error", err)
	}
	if outs[0].Err == nil {
		t.Error("bad job should carry its error")
	}
}
