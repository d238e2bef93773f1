package virtuoso_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	virtuoso "repro"
)

// traceTestOpts is the shared configuration of the recording and the
// replaying runs: determinism requires the two systems to agree on
// everything except where the instruction stream comes from.
func traceTestOpts() []virtuoso.Option {
	return []virtuoso.Option{
		virtuoso.WithScaledConfig(),
		virtuoso.WithDesign(virtuoso.DesignRadix),
		virtuoso.WithPolicy(virtuoso.PolicyTHP),
		virtuoso.WithMaxInstructions(250_000),
		virtuoso.WithSeed(9),
	}
}

// normalise zeroes the host-side fields that legitimately differ
// between two executions of the same simulation (wall time, Go heap
// growth); everything else must match bit for bit.
func normalise(r virtuoso.Result) virtuoso.Result {
	r.Metrics.WallTime = 0
	r.Metrics.SimHeapBytes = 0
	return r
}

func resultJSON(t *testing.T, r virtuoso.Result) string {
	t.Helper()
	data, err := json.Marshal(normalise(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestReplayDeterminism(t *testing.T) {
	dir := t.TempDir()

	// Live run: the ordinary execution-driven session sets the truth
	// every recording and replay variant must reproduce.
	live, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("BFS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	mLive, err := live.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, live.Result(mLive))

	// Recording runs: same configuration, teeing the stream to disk in
	// each on-disk format. The recording run's own metrics must match
	// the live run regardless of what is written.
	recordings := []struct {
		name  string
		ropts []virtuoso.RecordOption
	}{
		{"bfs.trc", nil}, // v2 (default)
		{"bfs1.trc", []virtuoso.RecordOption{virtuoso.RecordFormatV1()}},    // v1 plain
		{"bfs1.trc.gz", []virtuoso.RecordOption{virtuoso.RecordFormatV1()}}, // v1 gzip envelope
	}
	for _, rc := range recordings {
		rec, err := virtuoso.Open(append(traceTestOpts(),
			virtuoso.WithWorkloadScale(0.05),
			virtuoso.WithWorkload("BFS"),
		)...)
		if err != nil {
			t.Fatal(err)
		}
		mRec, _, err := rec.Record(filepath.Join(dir, rc.name), rc.ropts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultJSON(t, rec.Result(mRec)); got != want {
			t.Errorf("%s: recording run diverged from live run:\n got %s\nwant %s", rc.name, got, want)
		}
	}

	// A v1→v2 conversion preserves the stream, so its replay joins the
	// matrix below.
	if _, err := virtuoso.ConvertTrace(filepath.Join(dir, "bfs1.trc.gz"), filepath.Join(dir, "conv.trc")); err != nil {
		t.Fatal(err)
	}

	// Replay runs: every format and both replay routes must reproduce
	// the live Result bit for bit — v2, v1 plain and gzip-enveloped,
	// the converted file, the reference (unbatched) loop, and the
	// shared decoded-trace store, cold and warm.
	store := virtuoso.NewTraceStore(0)
	replays := []struct {
		leg  string
		name string
		opts []virtuoso.Option
	}{
		{"v2", "bfs.trc", nil},
		{"v1", "bfs1.trc", nil},
		{"v1-gz", "bfs1.trc.gz", nil},
		{"converted", "conv.trc", nil},
		{"v2-reference", "bfs.trc", []virtuoso.Option{virtuoso.WithReferencePath(true)}},
		{"v2-store-cold", "bfs.trc", []virtuoso.Option{virtuoso.WithTraceStore(store)}},
		{"v2-store-warm", "bfs.trc", []virtuoso.Option{virtuoso.WithTraceStore(store)}},
	}
	for _, rp := range replays {
		opts := append(traceTestOpts(), virtuoso.WithTrace(filepath.Join(dir, rp.name)))
		opts = append(opts, rp.opts...)
		rep, err := virtuoso.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		mRep, err := rep.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultJSON(t, rep.Result(mRep)); got != want {
			t.Errorf("%s: replayed Result diverged from live Result:\n got %s\nwant %s", rp.leg, got, want)
		}
	}
	if st := store.Stats(); st.Decodes != 1 || st.Hits != 1 {
		t.Errorf("store legs: decodes=%d hits=%d, want 1/1", st.Decodes, st.Hits)
	}
}

// TestSweepSharedTraceStore replays one recorded trace across a seed
// grid twice through Sweep.Traces: every point must match the plain
// per-point replay, and the second sweep must decode nothing.
func TestSweepSharedTraceStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bfs.trc")
	rec, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("BFS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Record(path); err != nil {
		t.Fatal(err)
	}

	base := rec.Config()
	base.MaxAppInsts = 100_000
	sweep := func(store *virtuoso.TraceStore) []byte {
		sw := &virtuoso.Sweep{
			Base:  base,
			Seeds: []uint64{9, 10, 11},
			// The trace is the workload: the factory re-creates the
			// recorded address space, Configure points the frontend at
			// the file.
			Workloads: []string{"BFS"},
			WorkloadFactory: func(p virtuoso.Point) (*virtuoso.Workload, error) {
				return virtuoso.TraceWorkload(path)
			},
			Configure: func(cfg *virtuoso.Config, p virtuoso.Point) error {
				cfg.TracePath = path
				cfg.Frontend = virtuoso.FrontendTrace
				return nil
			},
			Traces:   store,
			Parallel: 2,
		}
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	plain := sweep(nil)
	store := virtuoso.NewTraceStore(0)
	first := sweep(store)
	afterFirst := store.Stats()
	second := sweep(store)
	afterSecond := store.Stats()

	if string(plain) != string(first) || string(first) != string(second) {
		t.Error("shared-store sweep diverged from per-point replay sweep")
	}
	if afterFirst.Decodes != 1 {
		t.Errorf("first sweep decoded %d times, want 1", afterFirst.Decodes)
	}
	if afterSecond.Decodes != afterFirst.Decodes {
		t.Errorf("second sweep decoded %d more times, want 0", afterSecond.Decodes-afterFirst.Decodes)
	}
	if afterSecond.Hits != 5 {
		t.Errorf("hits=%d, want 5 (6 points, 1 decode)", afterSecond.Hits)
	}
}

func TestTraceInfoAndMemTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xs.trc.gz")
	rec, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("XS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	_, recInfo, err := rec.Record(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Record(path); err == nil {
		t.Error("second Record on a consumed session should fail")
	}

	// The info returned by Record (from the writer's counters) must
	// agree exactly with a full re-scan of the file.
	info, err := virtuoso.ReadTraceInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info != recInfo {
		t.Errorf("Record info disagrees with ReadTraceInfo:\n got %+v\nwant %+v", recInfo, info)
	}
	if info.Workload != "XS" || info.Class != "long" || !info.Compressed {
		t.Errorf("unexpected info: %+v", info)
	}
	if info.Seed != 9 || info.Records == 0 || info.Instructions == 0 || info.MemOps == 0 {
		t.Errorf("empty counts: %+v", info)
	}
	if info.Segments == 0 {
		t.Error("no layout segments recorded")
	}

	// ReadTraceHeader is the cheap variant: same metadata, zero counts.
	hdr, err := virtuoso.ReadTraceHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Workload != info.Workload || hdr.Seed != info.Seed || hdr.Segments != info.Segments {
		t.Errorf("header mismatch: %+v vs %+v", hdr, info)
	}
	if hdr.Records != 0 || hdr.Instructions != 0 {
		t.Errorf("ReadTraceHeader should not count records: %+v", hdr)
	}

	// Memory-trace-driven replay of the same file: runs, simulates only
	// memory ops, and echoes the recorded workload name.
	mem, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithFrontend(virtuoso.FrontendMemTrace),
		virtuoso.WithTrace(path),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mem.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload != "XS" {
		t.Errorf("memtrace replay workload = %q, want XS", m.Workload)
	}
	if m.AppInsts == 0 || m.AppInsts >= info.Instructions {
		t.Errorf("memtrace replay simulated %d insts of %d: expected a strict memory-only subset",
			m.AppInsts, info.Instructions)
	}
}

func TestParallelReplaysShareNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.trc.gz")
	rec, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("BFS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Record(path); err != nil {
		t.Fatal(err)
	}

	// Four concurrent replays of one file must all produce the same
	// Result: every run opens its own reader (no shared cursor).
	const n = 4
	results := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := virtuoso.Open(append(traceTestOpts(), virtuoso.WithTrace(path))...)
			if err != nil {
				errs[i] = err
				return
			}
			m, err := sess.Run()
			if err != nil {
				errs[i] = err
				return
			}
			data, err := json.Marshal(normalise(sess.Result(m)))
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = string(data)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("replay %d diverged:\n got %s\nwant %s", i, results[i], results[0])
		}
	}
}

func TestWithTraceErrors(t *testing.T) {
	if _, err := virtuoso.Open(virtuoso.WithTrace(filepath.Join(t.TempDir(), "missing.trc"))); err == nil {
		t.Error("Open with a missing trace should fail")
	}
	if _, err := virtuoso.ReadTraceInfo(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Error("ReadTraceInfo on a missing file should fail")
	}
	if _, err := virtuoso.ReadTraceHeader(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Error("ReadTraceHeader on a missing file should fail")
	}
}

// TestWorkloadDisplacesTrace: a WithWorkload after WithTrace must fully
// undo the trace attachment — path and frontend both — so the named
// workload runs execution-driven instead of materialising in memory.
func TestWorkloadDisplacesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.trc")
	rec, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("BFS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Record(path); err != nil {
		t.Fatal(err)
	}

	sess, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithTrace(path),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("XS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := sess.Config(); cfg.TracePath != "" || cfg.Frontend != virtuoso.FrontendExec {
		t.Errorf("displaced trace left TracePath=%q Frontend=%d", cfg.TracePath, cfg.Frontend)
	}
	if sess.Workload().Name() != "XS" {
		t.Errorf("workload = %q, want XS", sess.Workload().Name())
	}
}

// TestBoundedReplayClosesTraceFile: a replay stopped by MaxAppInsts
// (rather than trace EOF) must still release its file descriptor — the
// engine closes the frontend source it built. Regression test for the
// fd leak found in review.
func TestBoundedReplayClosesTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.trc")
	rec, err := virtuoso.Open(append(traceTestOpts(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("BFS"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Record(path); err != nil {
		t.Fatal(err)
	}

	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	before := countFDs()
	for i := 0; i < 20; i++ {
		// The bound stops the run at the last record, never reading EOF.
		sess, err := virtuoso.Open(append(traceTestOpts(), virtuoso.WithTrace(path))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if after := countFDs(); after > before+2 {
		t.Errorf("fd count grew from %d to %d across 20 bounded replays: trace files not closed", before, after)
	}
}

// TestWorkloadNameAliases covers the forgiving lookup the CLI documents.
func TestWorkloadNameAliases(t *testing.T) {
	for _, alias := range []string{"BFS", "bfs", "graphbig-bfs", "GraphBIG-BFS", "llm-llama-2-7b"} {
		want := "BFS"
		if alias == "llm-llama-2-7b" {
			want = "Llama-2-7B"
		}
		w, err := virtuoso.NamedWorkload(alias)
		if err != nil {
			t.Errorf("alias %q: %v", alias, err)
			continue
		}
		if w.Name() != want {
			t.Errorf("alias %q resolved to %q, want %q", alias, w.Name(), want)
		}
	}
	if _, err := virtuoso.NamedWorkload("graphbig-"); err == nil {
		t.Error("bare prefix should not resolve")
	}
	// A wrong-suite spelling must stay an error, not silently resolve
	// to a workload from another suite.
	if _, err := virtuoso.NamedWorkload("faas-bfs"); err == nil {
		t.Error("wrong-suite prefix faas-bfs should not resolve")
	}
	// So must invalid parameters.
	if _, err := virtuoso.NamedWorkloadWith("BFS", virtuoso.WorkloadParams{Scale: -0.5}); err == nil {
		t.Error("negative scale should not build a workload")
	}
	neg := &virtuoso.Sweep{
		Base:      virtuoso.ScaledConfig(),
		Workloads: []string{"BFS"},
		Params:    virtuoso.WorkloadParams{Scale: -0.5},
	}
	if _, err := neg.Run(context.Background()); err == nil {
		t.Error("sweep with negative scale should fail up front")
	}
}

// TestWorkloadParamsAreConcurrencySafe builds differently scaled
// workloads from many goroutines at once — the pattern that raced when
// scale and iteration count were mutable package globals. Run under
// -race this is a regression test for the catalog-globals fix.
func TestWorkloadParamsAreConcurrencySafe(t *testing.T) {
	scales := []float64{0.05, 0.1, 0.2, 0.5}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scale := scales[i%len(scales)]
			w, err := virtuoso.NamedWorkloadWith("BFS", virtuoso.WorkloadParams{Scale: scale, LongIters: 1 + i%3})
			if err != nil {
				t.Error(err)
				return
			}
			want := uint64(float64(320<<20) * scale)
			got := w.FootprintBytes()
			// Footprints are 2MB-aligned with a 2MB floor.
			if got+2<<20 < want || got > want+2<<20 {
				t.Errorf("scale %v: footprint %d, want ~%d", scale, got, want)
			}
		}(i)
	}
	wg.Wait()
}

func TestSweepParamsScaleWorkloads(t *testing.T) {
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 50_000
	sweep := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"BFS"},
		Seeds:     []uint64{1, 2},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Parallel:  2,
	}
	report, err := sweep.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(report.Results))
	}
}
