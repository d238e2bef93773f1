package virtuoso_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	virtuoso "repro"
)

// shardTestSweep is a 6-point grid (2 workloads × 3 seeds), small
// enough that the whole sharded-resume choreography stays in test-suite
// seconds.
func shardTestSweep(parallel int) *virtuoso.Sweep {
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 80_000
	return &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"JSON", "2D-Sum"},
		Designs:   []virtuoso.DesignName{virtuoso.DesignRadix},
		Policies:  []virtuoso.PolicyName{virtuoso.PolicyTHP},
		Seeds:     []uint64{1, 2, 3},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Parallel:  parallel,
	}
}

func canonicalJSON(t *testing.T, rep *virtuoso.Report) string {
	t.Helper()
	data, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestShardedResumeDeterminism is the tentpole acceptance criterion: a
// grid run as 3 shards — one of them interrupted mid-run and resumed —
// then merged must produce a Report byte-identical (canonical form) to
// the same grid run unsharded in one process.
func TestShardedResumeDeterminism(t *testing.T) {
	golden, err := shardTestSweep(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON := canonicalJSON(t, golden)

	dir := t.TempDir()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
	}

	// Shards 0 and 2 run to completion; different worker counts must
	// not matter.
	for _, i := range []int{0, 2} {
		sw := shardTestSweep(1 + i)
		sw.Shard = virtuoso.Shard{Index: i, Count: 3}
		sw.Checkpoint = paths[i]
		if _, err := sw.Run(context.Background()); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}

	// Shard 1 is interrupted after its first point lands (sequential,
	// so the second point has not started), then resumed.
	{
		sw := shardTestSweep(1)
		sw.Shard = virtuoso.Shard{Index: 1, Count: 3}
		sw.Checkpoint = paths[1]
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sw.Progress = func(ev virtuoso.SweepEvent) { cancel() }
		rep, err := sw.Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted shard: err = %v, want context.Canceled", err)
		}
		if len(rep.Results) == 0 || len(rep.Results) >= 2 {
			t.Fatalf("interrupted shard reported %d results, want exactly the 1 completed point", len(rep.Results))
		}

		info, ckptResults, err := virtuoso.ReadCheckpoint(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		if info.Done != len(rep.Results) {
			t.Fatalf("checkpoint has %d points, report has %d — completed points must be durable", info.Done, len(rep.Results))
		}
		if info.SpecHash != rep.SpecHash || info.Points != 6 || info.Shard != "1/3" {
			t.Fatalf("checkpoint header %+v", info)
		}
		_ = ckptResults

		// Resume: the completed point must come from disk, not re-run.
		sw2 := shardTestSweep(1)
		sw2.Shard = virtuoso.Shard{Index: 1, Count: 3}
		sw2.Checkpoint = paths[1]
		var events []virtuoso.SweepEvent
		sw2.Progress = func(ev virtuoso.SweepEvent) { events = append(events, ev) }
		rep2, err := sw2.Run(context.Background())
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if len(rep2.Results) != 2 {
			t.Fatalf("resumed shard reported %d results, want 2", len(rep2.Results))
		}
		if want := 2 - info.Done; len(events) != want {
			t.Errorf("resume ran %d points, want %d (completed points must not re-run)", len(events), want)
		}
		if len(events) > 0 && (events[0].Done != info.Done+1 || events[0].Total != 2) {
			t.Errorf("resume progress = %d/%d, want %d/2", events[0].Done, events[0].Total, info.Done+1)
		}
	}

	merged, err := virtuoso.MergeCheckpoints(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.SpecHash != golden.SpecHash {
		t.Errorf("merged spec hash %s, golden %s", merged.SpecHash, golden.SpecHash)
	}
	if got := canonicalJSON(t, merged); got != goldenJSON {
		t.Errorf("merged report differs from unsharded run:\nmerged: %.400s\ngolden: %.400s", got, goldenJSON)
	}
}

// TestCheckpointTornTailRecovery simulates a crash mid-append: the torn
// tail record is dropped, the point re-runs on resume, and the final
// report still matches an uncheckpointed run exactly.
func TestCheckpointTornTailRecoveryEndToEnd(t *testing.T) {
	golden, err := shardTestSweep(2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	sw := shardTestSweep(2)
	sw.Checkpoint = path
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: drop its final 10 bytes (newline included).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	info, _, err := virtuoso.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn || info.Done != 5 {
		t.Fatalf("torn checkpoint: %+v, want Torn with 5 of 6 points", info)
	}

	// Resume re-runs exactly the torn point.
	sw2 := shardTestSweep(2)
	sw2.Checkpoint = path
	var reran int
	sw2.Progress = func(ev virtuoso.SweepEvent) { reran++ }
	rep, err := sw2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reran != 1 {
		t.Errorf("resume after tear re-ran %d points, want 1", reran)
	}
	if got, want := canonicalJSON(t, rep), canonicalJSON(t, golden); got != want {
		t.Errorf("report after torn-tail recovery differs from golden")
	}
	if info, _, err := virtuoso.ReadCheckpoint(path); err != nil || info.Torn || info.Done != 6 {
		t.Errorf("checkpoint not repaired: %+v, %v", info, err)
	}
}

// TestResumeRejectsChangedSpec: a checkpoint written by one grid must
// not silently resume a different one.
func TestResumeRejectsChangedSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	sw := shardTestSweep(2)
	sw.Checkpoint = path
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	changed := shardTestSweep(2)
	changed.Seeds = []uint64{1, 2, 3, 4} // grid grew
	changed.Checkpoint = path
	if _, err := changed.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "spec hash") {
		t.Errorf("resume against a changed grid: err = %v, want spec-hash mismatch", err)
	}
}

// TestMergeRejectsBadShardSets: overlapping and gapped shard-file sets
// must fail loudly, not produce a plausible-looking report.
func TestMergeRejectsBadShardSets(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, shard virtuoso.Shard) string {
		p := filepath.Join(dir, name)
		sw := shardTestSweep(2)
		sw.Shard = shard
		sw.Checkpoint = p
		if _, err := sw.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s0 := run("s0.jsonl", virtuoso.Shard{Index: 0, Count: 3})
	s1 := run("s1.jsonl", virtuoso.Shard{Index: 1, Count: 3})
	whole := run("whole.jsonl", virtuoso.Shard{})

	// Gap: shard 2 missing.
	if _, err := virtuoso.MergeCheckpoints(s0, s1); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("gapped merge: %v", err)
	}
	// Overlap: the whole grid plus shard 0 double-covers shard 0.
	if _, err := virtuoso.MergeCheckpoints(whole, s0); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping merge: %v", err)
	}
	// A complete single file merges fine and matches itself.
	rep, err := virtuoso.MergeCheckpoints(whole)
	if err != nil || len(rep.Results) != 6 {
		t.Fatalf("whole-grid merge: %v (%d results)", err, len(rep.Results))
	}

	// Mismatched spec: same grid shape, different seed axis.
	other := shardTestSweep(2)
	other.Seeds = []uint64{7, 8, 9}
	other.Shard = virtuoso.Shard{Index: 2, Count: 3}
	other.Checkpoint = filepath.Join(dir, "other.jsonl")
	if _, err := other.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := virtuoso.MergeCheckpoints(s0, s1, other.Checkpoint); err == nil || !strings.Contains(err.Error(), "different sweeps") {
		t.Errorf("mismatched merge: %v", err)
	}
}

// TestSweepSpecHash pins what the spec hash does and does not cover.
func TestSweepSpecHash(t *testing.T) {
	a, b := shardTestSweep(1), shardTestSweep(8)
	b.Shard = virtuoso.Shard{Index: 1, Count: 4}
	b.Checkpoint = "somewhere.jsonl"
	if a.SpecHash() != b.SpecHash() {
		t.Error("Parallel/Shard/Checkpoint must not change the spec hash")
	}
	c := shardTestSweep(1)
	c.Seeds = []uint64{1, 2, 4}
	if c.SpecHash() == a.SpecHash() {
		t.Error("a different seed axis must change the spec hash")
	}
	d := shardTestSweep(1)
	d.Label = "custom-configure-v2"
	if d.SpecHash() == a.SpecHash() {
		t.Error("Label must salt the spec hash")
	}
	e := shardTestSweep(1)
	e.Base.MaxAppInsts = 90_000
	if e.SpecHash() == a.SpecHash() {
		t.Error("a base-config change must change the spec hash")
	}
}

// TestSweepSpecRoundTrip: the declarative JSON spec builds the same
// sweep (by hash) as hand-constructed fields, and malformed specs fail
// loudly.
func TestSweepSpecRoundTrip(t *testing.T) {
	insts := uint64(80_000)
	spec := &virtuoso.SweepSpec{
		Workloads:   []string{"JSON", "2D-Sum"},
		Designs:     []string{"radix"},
		Policies:    []string{"thp"},
		Seeds:       []uint64{1, 2, 3},
		Scale:       0.05,
		MaxAppInsts: &insts,
	}
	sw, err := spec.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sw.SpecHash(), shardTestSweep(0).SpecHash(); got != want {
		t.Errorf("spec-built sweep hashes %s, hand-built %s", got, want)
	}
	if pts := sw.Points(); len(pts) != 6 {
		t.Errorf("spec grid has %d points, want 6", len(pts))
	}

	if _, err := virtuoso.ParseSweepSpec([]byte(`{"desings": ["radix"]}`)); err == nil {
		t.Error("unknown spec field accepted")
	}
	if _, err := virtuoso.ParseSweepSpec([]byte(`{"workloads": ["BFS"]} trailing`)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := &virtuoso.SweepSpec{Workloads: []string{"BFS"}, Designs: []string{"not-a-design"}}
	if _, err := bad.Sweep(); err == nil {
		t.Error("unknown design accepted")
	}
	empty := &virtuoso.SweepSpec{Seeds: []uint64{1}}
	if _, err := empty.Sweep(); err == nil {
		t.Error("workload-less spec accepted")
	}
}

// TestSweepSpecRejectsBadWorkloads: SweepSpec.Sweep checks workload
// names and construction params before any point runs, so `sweep run`
// and `sweep serve` refuse such specs up front.
func TestSweepSpecRejectsBadWorkloads(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		spec virtuoso.SweepSpec
	}{
		{"unknown workload", virtuoso.SweepSpec{Workloads: []string{"BFS", "no-such-workload"}}},
		{"empty mix", virtuoso.SweepSpec{Mixes: [][]string{{}}}},
		{"unknown mix member", virtuoso.SweepSpec{Mixes: [][]string{{"BFS", "no-such-workload"}}}},
		{"NaN scale", virtuoso.SweepSpec{Workloads: []string{"BFS"}, Scale: nan}},
		{"negative scale", virtuoso.SweepSpec{Workloads: []string{"BFS"}, Scale: -0.5}},
		{"negative long_iters", virtuoso.SweepSpec{Workloads: []string{"BFS"}, LongIters: -1}},
	} {
		if _, err := tc.spec.Sweep(); err == nil {
			t.Errorf("%s: spec built a sweep, want an error", tc.name)
		}
	}
	ok := virtuoso.SweepSpec{Workloads: []string{"BFS"}, Mixes: [][]string{{"RND", "SEQ"}}, Scale: 0.05, LongIters: 2}
	if _, err := ok.Sweep(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestSweepWarmCacheCheckpoint pins how cache hits land next to
// simulated points: a run over a partly warm cache with a fresh
// checkpoint reports every hit first, in point order and with Done
// counting 1..k, then the simulated points; the checkpoint ends up
// holding every point, hits included, and both the report and the
// merged checkpoint match a cold run byte for byte.
func TestSweepWarmCacheCheckpoint(t *testing.T) {
	golden, err := shardTestSweep(2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON := canonicalJSON(t, golden)

	// Warm the cache with seeds 1 and 2 only: points 0, 1, 3 and 4 of
	// the full grid.
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	warm := shardTestSweep(2)
	warm.Seeds = []uint64{1, 2}
	warm.Cache = cacheDir
	if _, err := warm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "ckpt.jsonl")
	sw := shardTestSweep(2)
	sw.Cache = cacheDir
	sw.Checkpoint = path
	var events []virtuoso.SweepEvent
	sw.Progress = func(ev virtuoso.SweepEvent) { events = append(events, ev) }
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromCache != 4 || rep.Executed != 2 || rep.FromCheckpoint != 0 {
		t.Fatalf("warm run: from cache %d, executed %d, from checkpoint %d, want 4/2/0",
			rep.FromCache, rep.Executed, rep.FromCheckpoint)
	}
	if len(events) != 6 {
		t.Fatalf("warm run reported %d events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 6 || ev.Err != nil || ev.Result == nil || ev.Metrics != &ev.Result.Metrics {
			t.Errorf("event %d: Done %d/%d, err %v, result %v", i, ev.Done, ev.Total, ev.Err, ev.Result != nil)
		}
		if ev.FromCache != (i < 4) {
			t.Errorf("event %d (point %d): FromCache = %v", i, ev.Point.Index, ev.FromCache)
		}
		if i < 4 {
			if want := []int{0, 1, 3, 4}[i]; ev.Point.Index != want || ev.Result.Index != want {
				t.Errorf("cache-hit event %d is point %d (result %d), want %d", i, ev.Point.Index, ev.Result.Index, want)
			}
		}
	}
	if got := canonicalJSON(t, rep); got != goldenJSON {
		t.Errorf("warm-cache report differs from the cold run:\nwarm:   %.400s\ngolden: %.400s", got, goldenJSON)
	}

	info, _, err := virtuoso.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done != 6 || info.Torn {
		t.Fatalf("checkpoint %+v, want all 6 points", info)
	}
	merged, err := virtuoso.MergeCheckpoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalJSON(t, merged); got != goldenJSON {
		t.Errorf("checkpoint of the warm-cache run differs from the cold run")
	}
}

// TestSweepStopsOnCacheWriteFailure pins the cache's failure path: when
// a point's result cannot be written to the cache, the sweep stops with
// the cache error — not the cancellation it causes — and returns the
// points that finished.
func TestSweepStopsOnCacheWriteFailure(t *testing.T) {
	golden, err := shardTestSweep(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cacheDir := filepath.Join(t.TempDir(), "cache")
	sw := shardTestSweep(1)
	sw.Cache = cacheDir
	var events []virtuoso.SweepEvent
	sw.Progress = func(ev virtuoso.SweepEvent) {
		events = append(events, ev)
		if len(events) == 1 {
			if err := os.RemoveAll(cacheDir); err != nil {
				t.Error(err)
			}
		}
	}
	rep, err := sw.Run(context.Background())
	if err == nil || !strings.HasPrefix(err.Error(), "virtuoso: sweep cache "+cacheDir+": ") {
		t.Fatalf("err = %v, want the sweep cache error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want the cache error rather than the cancellation", err)
	}
	// The first point was cached before the directory went; the second
	// simulated and failed to cache, which stopped the sweep.
	if rep == nil || len(rep.Results) != 2 || rep.Executed != 2 {
		t.Fatalf("partial report %+v, want the 2 finished points", rep)
	}
	for i, r := range rep.Results {
		if got, want := canonical(t, r), canonical(t, golden.Results[i]); got != want {
			t.Errorf("partial result %d differs from the cold run", i)
		}
	}
	if len(events) < 2 || events[1].Err != nil || events[1].Point.Index != 1 {
		t.Errorf("events %+v, want point 1 reported as finished", events)
	}
}
