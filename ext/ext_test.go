package ext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	virtuoso "repro"
	"repro/ext"
)

// testPolicy is a minimal custom allocation policy: buddy 4 KB frames
// with a custom instrumented routine, plus a call counter proving the
// policy actually ran.
type testPolicy struct {
	calls int
}

func (p *testPolicy) Name() string { return "EXT-TEST" }

func (p *testPolicy) AllocAnon(k ext.Kernel, proc ext.Process, vma ext.VMA, va ext.VAddr, tr ext.Tracer, now uint64) ext.AllocDecision {
	p.calls++
	exit := tr.Enter("ext_test_alloc")
	defer exit()
	tr.Atomic(k.BuddyLock())
	tr.ALU(50)
	frame, ok := k.AllocBuddy4K(tr)
	return ext.AllocDecision{Frame: frame, Size: ext.Page4K, OK: ok}
}

// testDesign is a minimal custom translation design: a fixed-overhead
// walk that resolves through the functional page table and charges one
// PTE access — the "few dozen lines" extension story for translation
// schemes.
type testDesign struct {
	env    ext.DesignEnv
	walks  uint64
	shoots uint64
}

func (d *testDesign) Name() string { return "ext-walker" }

func (d *testDesign) TranslateMiss(va ext.VAddr, now uint64) ext.TranslationResult {
	d.walks++
	pa, size, ok := d.env.Lookup(va)
	if !ok {
		return ext.TranslationResult{Lat: 10, Fault: true}
	}
	lat := 10 + d.env.AccessPTE(ext.Page4K.FrameBase(pa), false, now+10)
	return ext.TranslationResult{PA: pa, Size: size, Lat: lat}
}

func (d *testDesign) Invalidate(va ext.VAddr, size ext.PageSize) { d.shoots++ }

// testTierPolicy is a minimal custom migration policy: everything is a
// victim, and demotion always lands in the deepest slow tier.
type testTierPolicy struct{}

func (testTierPolicy) Name() string          { return "EXT-TIER" }
func (testTierPolicy) Touch(h uint32) uint32 { return h + 1 }
func (testTierPolicy) Decay(h uint32) uint32 {
	if h == 0 {
		return 0
	}
	return h - 1
}
func (testTierPolicy) Victim(h uint32, pass int) bool  { return true }
func (testTierPolicy) DemoteTo(slow int, h uint32) int { return slow - 1 }

func init() {
	ext.MustRegisterPolicy("ext-test-policy", func() ext.AllocPolicy { return &testPolicy{} })
	ext.MustRegisterTierPolicy("ext-test-tier", func() ext.TierPolicy { return testTierPolicy{} })
	ext.MustRegisterDesign("ext-test-design", func(env ext.DesignEnv) ext.TranslationDesign {
		return &testDesign{env: env}
	})
	ext.MustRegisterWorkload("ext-test-workload", func(p ext.WorkloadParams) (*ext.Workload, error) {
		foot := uint64(16 * ext.MB)
		return ext.NewWorkload("ext-test-workload", ext.ShortRunning, foot,
			func(w *ext.Workload, k ext.Kernel, pid int) {
				w.SetBase("data", k.Mmap(pid, foot, ext.MmapFlags{Anon: true}))
			},
			func(w *ext.Workload) []ext.Step {
				data := w.Base("data")
				return []ext.Step{
					{Kind: ext.StepTouch, Base: data, Size: foot, Stride: 64, ALUPer: 2, PC: 0xE00100},
					{Kind: ext.StepRand, Base: data, Size: foot, Count: foot / 512, ALUPer: 4, PC: 0xE00200},
				}
			}), nil
	})
}

func baseOpts() []virtuoso.Option {
	return []virtuoso.Option{
		virtuoso.WithScaledConfig(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithMaxInstructions(150_000),
	}
}

func TestRegisteredNamesAreKnown(t *testing.T) {
	foundP, foundD := false, false
	for _, p := range virtuoso.KnownPolicies() {
		if p == "ext-test-policy" {
			foundP = true
		}
	}
	for _, d := range virtuoso.KnownDesigns() {
		if d == "ext-test-design" {
			foundD = true
		}
	}
	if !foundP {
		t.Errorf("KnownPolicies() = %v, missing ext-test-policy", virtuoso.KnownPolicies())
	}
	if !foundD {
		t.Errorf("KnownDesigns() = %v, missing ext-test-design", virtuoso.KnownDesigns())
	}
	if _, err := virtuoso.ParsePolicy("ext-test-policy"); err != nil {
		t.Errorf("ParsePolicy rejected registered policy: %v", err)
	}
	if _, err := virtuoso.ParseDesign("ext-test-design"); err != nil {
		t.Errorf("ParseDesign rejected registered design: %v", err)
	}
	reg := virtuoso.RegisteredWorkloads()
	if len(reg) == 0 || !contains(reg, "ext-test-workload") {
		t.Errorf("RegisteredWorkloads() = %v, missing ext-test-workload", reg)
	}
	if !contains(virtuoso.KnownTierPolicies(), "ext-test-tier") {
		t.Errorf("KnownTierPolicies() = %v, missing ext-test-tier", virtuoso.KnownTierPolicies())
	}
	if _, err := virtuoso.ParseTierPolicy("ext-test-tier"); err != nil {
		t.Errorf("ParseTierPolicy rejected registered tier policy: %v", err)
	}
}

// TestRegisteredTierPolicy selects the custom migration policy by name
// through Open and a Sweep axis, under enough pressure that it actually
// steers demotions.
func TestRegisteredTierPolicy(t *testing.T) {
	tiers := []virtuoso.TierSpec{
		{Name: "cxl", Bytes: 64 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
		{Name: "nvm", Bytes: 128 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
	}
	cfg := virtuoso.ScaledConfig()
	cfg.MaxAppInsts = 400_000
	cfg.Policy = virtuoso.PolicyBuddy
	cfg.OSCfg.PhysBytes = 12 << 20
	cfg.OSCfg.SwapBytes = 512 << 20
	cfg.OSCfg.SwapThreshold = 0.5
	sess, err := virtuoso.Open(
		virtuoso.WithConfig(cfg),
		virtuoso.WithWorkload("RND"),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithTiers(tiers...),
		virtuoso.WithTierPolicy("ext-test-tier"),
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.OS.Demotions == 0 {
		t.Fatal("custom tier policy saw no demotions")
	}
	// DemoteTo always picks the deepest tier: all inbound traffic must
	// land in "nvm", none in "cxl".
	if len(m.Tiers) != 2 || m.Tiers[0].PagesIn != 0 || m.Tiers[1].PagesIn == 0 {
		t.Fatalf("deepest-tier policy not honoured: %+v", m.Tiers)
	}
	if res := sess.Result(m); res.TierPolicy != "ext-test-tier" {
		t.Errorf("Result.TierPolicy = %q, want ext-test-tier", res.TierPolicy)
	}

	// The same name sweeps as a TierPolicies axis value next to a
	// built-in.
	sweep := &virtuoso.Sweep{
		Base:         cfg,
		Workloads:    []string{"RND"},
		TierSpecs:    [][]virtuoso.TierSpec{tiers},
		TierPolicies: []string{"ext-test-tier", virtuoso.TierPolicyClock},
		Params:       virtuoso.WorkloadParams{Scale: 0.05},
		Parallel:     2,
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	if rep.Results[0].TierPolicy != "ext-test-tier" || rep.Results[1].TierPolicy != virtuoso.TierPolicyClock {
		t.Fatalf("swept tier policies echo %q/%q", rep.Results[0].TierPolicy, rep.Results[1].TierPolicy)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestOpenWithRegisteredComponents selects all three custom components
// purely by name through Open and verifies they actually ran.
func TestOpenWithRegisteredComponents(t *testing.T) {
	sess, err := virtuoso.Open(append(baseOpts(),
		virtuoso.WithWorkload("ext-test-workload"),
		virtuoso.WithPolicy("ext-test-policy"),
		virtuoso.WithDesign("ext-test-design"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy != "EXT-TEST" {
		t.Errorf("Metrics.Policy = %q, want the custom policy's display name EXT-TEST", m.Policy)
	}
	if m.Design != "ext-test-design" {
		t.Errorf("Metrics.Design = %q, want ext-test-design", m.Design)
	}
	if m.Workload != "ext-test-workload" {
		t.Errorf("Metrics.Workload = %q, want ext-test-workload", m.Workload)
	}
	if m.MinorFaults == 0 {
		t.Error("custom policy served no faults")
	}
	if m.Walks == 0 {
		t.Error("custom design performed no walks")
	}
}

// TestSweepWithRegisteredComponents runs custom components as sweep grid
// axis values alongside built-ins, in parallel — the registry must be
// safe for concurrent reads (this test is part of the -race suite).
func TestSweepWithRegisteredComponents(t *testing.T) {
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 100_000
	sweep := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"ext-test-workload", "XS"},
		Designs:   []virtuoso.DesignName{"ext-test-design", virtuoso.DesignRadix},
		Policies:  []virtuoso.PolicyName{"ext-test-policy", virtuoso.PolicyBuddy},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Parallel:  4,
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 8 {
		t.Fatalf("got %d results, want 8", len(rep.Results))
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		seen[string(r.Design)+"/"+string(r.Policy)] = true
	}
	if !seen["ext-test-design/ext-test-policy"] {
		t.Errorf("custom design × custom policy point missing: %v", seen)
	}
}

// TestRegisteredWorkloadInMix puts a registered workload into a
// multiprogrammed process mix next to a catalog one.
func TestRegisteredWorkloadInMix(t *testing.T) {
	sess, err := virtuoso.Open(
		virtuoso.WithScaledConfig(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithMaxInstructions(60_000),
		virtuoso.WithProcesses("ext-test-workload", "SEQ"),
	)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := sess.RunMulti()
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Procs) != 2 || mm.Procs[0].Workload != "ext-test-workload" {
		t.Fatalf("mix procs = %+v, want ext-test-workload first", mm.Procs)
	}
}

func TestRegistrationHygiene(t *testing.T) {
	if err := ext.RegisterPolicy("ext-test-policy", func() ext.AllocPolicy { return &testPolicy{} }); err == nil {
		t.Error("duplicate policy registration accepted")
	}
	if err := ext.RegisterPolicy("thp", func() ext.AllocPolicy { return &testPolicy{} }); err == nil || !strings.Contains(err.Error(), "built-in") {
		t.Errorf("built-in policy collision: err = %v", err)
	}
	if err := ext.RegisterDesign("ech", func(ext.DesignEnv) ext.TranslationDesign { return nil }); err == nil {
		t.Error("built-in design collision accepted")
	}
	if err := ext.RegisterWorkload("graphbig-bfs", func(ext.WorkloadParams) (*ext.Workload, error) { return nil, nil }); err == nil {
		t.Error("catalog workload collision accepted")
	}
	if err := ext.RegisterPolicy("", func() ext.AllocPolicy { return &testPolicy{} }); err == nil {
		t.Error("empty name accepted")
	}
	if err := ext.RegisterPolicy("nil-ctor", nil); err == nil {
		t.Error("nil constructor accepted")
	}
	if err := ext.RegisterTierPolicy("ext-test-tier", func() ext.TierPolicy { return testTierPolicy{} }); err == nil {
		t.Error("duplicate tier policy registration accepted")
	}
	if err := ext.RegisterTierPolicy("hotcold", func() ext.TierPolicy { return testTierPolicy{} }); err == nil || !strings.Contains(err.Error(), "built-in") {
		t.Errorf("built-in tier policy collision: err = %v", err)
	}
	if err := ext.RegisterTierPolicy("nil-tier-ctor", nil); err == nil {
		t.Error("nil tier policy constructor accepted")
	}
}

// normalise zeroes the host-side fields (wall time, heap) that
// legitimately differ between two otherwise identical runs.
func normalise(r virtuoso.Result) virtuoso.Result {
	r.Metrics.WallTime = 0
	r.Metrics.SimHeapBytes = 0
	if r.Multi != nil {
		mm := *r.Multi
		mm.Aggregate.WallTime = 0
		mm.Aggregate.SimHeapBytes = 0
		r.Multi = &mm
	}
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

// TestObserverCountersMatchMetrics checks the Observer contract: the
// interval deltas sum to the final snapshot, and the final snapshot's
// counters equal the run's Metrics exactly.
func TestObserverCountersMatchMetrics(t *testing.T) {
	var snaps []virtuoso.Snapshot
	sess, err := virtuoso.Open(append(baseOpts(),
		virtuoso.WithWorkload("XS"),
		virtuoso.WithObserver(virtuoso.ObserverFunc(func(s virtuoso.Snapshot) {
			snaps = append(snaps, s)
		})),
		virtuoso.WithObserveInterval(20_000),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("got %d snapshots, want several (interval 20k over 150k insts)", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Error("last snapshot not marked Final")
	}
	for i, s := range snaps {
		if s.Seq != i {
			t.Errorf("snapshot %d has Seq %d", i, s.Seq)
		}
	}
	// Sum the per-interval deltas; they must reconstruct the final
	// cumulative counters, which must equal the Metrics.
	var sumInsts, sumCycles, sumMisses, sumFaults uint64
	prev := virtuoso.Snapshot{}
	for _, s := range snaps {
		sumInsts += s.AppInsts - prev.AppInsts
		sumCycles += s.Cycles - prev.Cycles
		sumMisses += s.L2TLBMisses - prev.L2TLBMisses
		sumFaults += s.MinorFaults - prev.MinorFaults
		prev = s
	}
	if sumInsts != m.AppInsts || sumCycles != m.Cycles || sumMisses != m.L2TLBMisses || sumFaults != m.OS.MinorFaults {
		t.Errorf("interval sums (insts=%d cycles=%d misses=%d faults=%d) != metrics (insts=%d cycles=%d misses=%d faults=%d)",
			sumInsts, sumCycles, sumMisses, sumFaults,
			m.AppInsts, m.Cycles, m.L2TLBMisses, m.OS.MinorFaults)
	}
	if last.KernelInsts != m.KernelInsts || last.Walks != m.Walks || last.MajorFaults != m.OS.MajorFaults {
		t.Errorf("final snapshot %+v does not match metrics", last)
	}
}

// finalOf is the Final snapshot a completed run with metrics m and
// ctxSwitches scheduler dispatches must emit as its seq-th snapshot.
func finalOf(seq int, m virtuoso.Metrics, ctxSwitches uint64) virtuoso.Snapshot {
	return virtuoso.Snapshot{
		Seq: seq, Final: true,
		AppInsts: m.AppInsts, KernelInsts: m.KernelInsts, Cycles: m.Cycles,
		L2TLBMisses: m.L2TLBMisses, Walks: m.Walks, WalkCycles: m.WalkCycles,
		MinorFaults: m.OS.MinorFaults, MajorFaults: m.OS.MajorFaults,
		SwapIns: m.OS.SwapIns, SwapOuts: m.OS.SwapOuts, Collapses: m.OS.Collapses,
		Promotions: m.OS.Promotions, Demotions: m.OS.Demotions,
		ContextSwitches: ctxSwitches,
	}
}

// TestObserverMultiFinalMatchesMetrics checks the Observer contract on
// a multiprogrammed run: the Final snapshot equals the aggregate
// Metrics' counters and the scheduler's context-switch count, and the
// interval snapshots see the switch count grow while the run goes on.
func TestObserverMultiFinalMatchesMetrics(t *testing.T) {
	var snaps []virtuoso.Snapshot
	sess, err := virtuoso.Open(
		virtuoso.WithScaledConfig(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithMaxInstructions(50_000),
		virtuoso.WithProcesses("ext-test-workload", "SEQ"),
		virtuoso.WithObserver(virtuoso.ObserverFunc(func(s virtuoso.Snapshot) { snaps = append(snaps, s) })),
		virtuoso.WithObserveInterval(10_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := sess.RunMulti()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 || mm.ContextSwitches == 0 {
		t.Fatalf("%d snapshots over %d context switches: want several of each", len(snaps), mm.ContextSwitches)
	}
	last := snaps[len(snaps)-1]
	if want := finalOf(len(snaps)-1, mm.Aggregate, mm.ContextSwitches); last != want {
		t.Errorf("final multiprogrammed snapshot does not match the returned metrics:\ngot:  %+v\nwant: %+v", last, want)
	}
	if mid := snaps[len(snaps)/2].ContextSwitches; mid == 0 || mid > mm.ContextSwitches {
		t.Errorf("mid-run snapshot reports %d context switches of %d", mid, mm.ContextSwitches)
	}
}

// TestObserverDeterminism is the determinism guard: a run with an
// Observer attached must produce a byte-identical Result to the same
// run without one.
func TestObserverDeterminism(t *testing.T) {
	run := func(opts ...virtuoso.Option) string {
		sess, err := virtuoso.Open(append(baseOpts(), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return resultJSON(t, sess.Result(m))
	}
	plain := run(virtuoso.WithWorkload("XS"))
	var n int
	observed := run(virtuoso.WithWorkload("XS"),
		virtuoso.WithObserver(virtuoso.ObserverFunc(func(virtuoso.Snapshot) { n++ })),
		virtuoso.WithObserveInterval(10_000))
	if n == 0 {
		t.Fatal("observer never fired")
	}
	if plain != observed {
		t.Errorf("observed run differs from unobserved run:\nplain:    %s\nobserved: %s", plain, observed)
	}

	// Same guard for a custom design + policy and a multiprogrammed run.
	plainM := func(opts ...virtuoso.Option) string {
		sess, err := virtuoso.Open(append([]virtuoso.Option{
			virtuoso.WithScaledConfig(),
			virtuoso.WithWorkloadScale(0.05),
			virtuoso.WithMaxInstructions(50_000),
			virtuoso.WithProcesses("ext-test-workload", "SEQ"),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := sess.RunMulti()
		if err != nil {
			t.Fatal(err)
		}
		return resultJSON(t, sess.MultiResult(mm))
	}
	a := plainM()
	b := plainM(virtuoso.WithObserver(virtuoso.ObserverFunc(func(virtuoso.Snapshot) {})),
		virtuoso.WithObserveInterval(10_000))
	if a != b {
		t.Error("observed multiprogrammed run differs from unobserved run")
	}

	// Recording runs the same loop: the observer fires, its Final
	// snapshot is the returned Metrics, and neither the Result nor the
	// trace bytes change.
	dir := t.TempDir()
	record := func(name string, opts ...virtuoso.Option) (virtuoso.Metrics, string, []byte) {
		sess, err := virtuoso.Open(append(baseOpts(), append(opts, virtuoso.WithWorkload("XS"))...)...)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		m, _, err := sess.Record(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.WallTime <= 0 {
			t.Errorf("recording %s reported WallTime %v, want > 0", name, m.WallTime)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return m, resultJSON(t, sess.Result(m)), raw
	}
	_, plainRec, plainRaw := record("plain.trc")
	var snaps []virtuoso.Snapshot
	m, observedRec, observedRaw := record("observed.trc",
		virtuoso.WithObserver(virtuoso.ObserverFunc(func(s virtuoso.Snapshot) { snaps = append(snaps, s) })),
		virtuoso.WithObserveInterval(10_000))
	if len(snaps) < 2 {
		t.Fatalf("observer fired %d times during a recording, want interval snapshots plus a final one", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if want := finalOf(last.Seq, m, 0); last != want {
		t.Errorf("final recording snapshot does not match the returned metrics:\ngot:  %+v\nwant: %+v", last, want)
	}
	if plainRec != observedRec {
		t.Errorf("observed recording differs from unobserved recording:\nplain:    %s\nobserved: %s", plainRec, observedRec)
	}
	if !bytes.Equal(plainRaw, observedRaw) {
		t.Error("observed recording wrote a different trace than the unobserved one")
	}
}

// TestCustomDesignPerProcess checks that each process of a
// multiprogrammed run gets its own design instance (the CR3-switch
// contract) — two processes under the custom design must not share
// walk state.
func TestCustomDesignPerProcess(t *testing.T) {
	sess, err := virtuoso.Open(
		virtuoso.WithScaledConfig(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithMaxInstructions(40_000),
		virtuoso.WithDesign("ext-test-design"),
		virtuoso.WithProcesses("SEQ", "SEQ"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunMulti(); err != nil {
		t.Fatal(err)
	}
}
