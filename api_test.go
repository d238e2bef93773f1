package virtuoso_test

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	virtuoso "repro"
)

// tinyScale shrinks workload footprints for one session.
func tinyScale() virtuoso.Option { return virtuoso.WithWorkloadScale(0.05) }

func TestOpenErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []virtuoso.Option
		want string
	}{
		{"no workload", nil, "no workload"},
		{"unknown workload", []virtuoso.Option{virtuoso.WithWorkload("nope")}, `unknown workload "nope"`},
		{"unknown design", []virtuoso.Option{virtuoso.WithWorkload("BFS"), virtuoso.WithDesign("bogus")}, `unknown design "bogus"`},
		{"unknown policy", []virtuoso.Option{virtuoso.WithWorkload("BFS"), virtuoso.WithPolicy("wat")}, `unknown policy "wat"`},
		{"fragmentation range", []virtuoso.Option{virtuoso.WithWorkload("BFS"), virtuoso.WithFragmentation(1.5)}, "out of range"},
		{"bad scale", []virtuoso.Option{virtuoso.WithWorkload("BFS"), virtuoso.WithWorkloadScale(-1)}, "must be positive"},
		{"nil custom workload", []virtuoso.Option{virtuoso.WithCustomWorkload(nil)}, "nil workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := virtuoso.Open(tc.opts...)
			if err == nil {
				t.Fatalf("Open succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestNonFiniteParamsRejected: NaN passes every `x < lo || x > hi`
// range check, so each scale and fragmentation check must reject NaN
// and ±Inf explicitly instead of running a degenerate workload.
func TestNonFiniteParamsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		opt  virtuoso.Option
	}{
		{"scale NaN", virtuoso.WithWorkloadScale(nan)},
		{"scale +Inf", virtuoso.WithWorkloadScale(inf)},
		{"fragmentation NaN", virtuoso.WithFragmentation(nan)},
	} {
		if _, err := virtuoso.Open(virtuoso.WithWorkload("BFS"), tc.opt); err == nil {
			t.Errorf("Open with %s succeeded, want an error", tc.name)
		}
	}
	for _, scale := range []float64{nan, inf, -inf} {
		if _, err := virtuoso.NamedWorkloadWith("BFS", virtuoso.WorkloadParams{Scale: scale}); err == nil {
			t.Errorf("NamedWorkloadWith(Scale: %v) succeeded, want an error", scale)
		}
	}
	for _, sp := range []virtuoso.SweepSpec{
		{Workloads: []string{"BFS"}, Frag: &nan},
		{Workloads: []string{"BFS"}, SwapThreshold: &nan},
	} {
		if _, err := sp.Sweep(); err == nil {
			t.Errorf("SweepSpec %+v built a sweep, want an error", sp)
		}
	}
}

func TestOpenFailurePaths(t *testing.T) {
	if _, err := virtuoso.Open(virtuoso.WithWorkloadScale(0.9)); err == nil {
		t.Fatal("Open without a workload should fail")
	}
	bad := virtuoso.DefaultConfig()
	bad.Policy = "no-such-policy"
	if _, err := virtuoso.Open(
		virtuoso.WithConfig(bad),
		virtuoso.WithWorkloadScale(0.9),
		virtuoso.WithWorkload("BFS"),
	); err == nil {
		t.Fatal("Open with an invalid config should fail")
	}
	// Explicit construction parameters are per-session: a session at a
	// custom scale never affects a later default-parameter lookup.
	w, err := virtuoso.NamedWorkload("BFS")
	if err != nil {
		t.Fatal(err)
	}
	if w.FootprintBytes() < 64<<20 {
		t.Errorf("default BFS footprint %d MB implausibly small", w.FootprintBytes()>>20)
	}
}

// TestBadCacheGeometryIsAnError: an unbuildable cache level fails Open
// and its sweep point with an error instead of panicking in the cache
// constructor.
func TestBadCacheGeometryIsAnError(t *testing.T) {
	bad := virtuoso.ScaledConfig()
	bad.CacheCfg.L2Ways = 0
	if _, err := virtuoso.Open(virtuoso.WithConfig(bad), tinyScale(), virtuoso.WithWorkload("JSON")); err == nil || !strings.Contains(err.Error(), "L2") {
		t.Fatalf("Open with L2Ways = 0: err = %v, want an L2 geometry error", err)
	}

	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 20_000
	sweep := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"JSON"},
		Seeds:     []uint64{1, 2},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Configure: func(cfg *virtuoso.Config, p virtuoso.Point) error {
			if p.Seed == 2 {
				cfg.CacheCfg.L3Ways = 3 // 2 MB / 64 B lines do not split into 3 ways
			}
			return nil
		},
	}
	if _, err := sweep.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "L3") {
		t.Fatalf("sweep with a 3-way L3 point: err = %v, want an L3 geometry error", err)
	}
}

// TestBadTLBGeometryIsAnError: an unbuildable TLB or page-walk cache
// fails Open and its sweep point with an error instead of dividing by
// zero or panicking in the TLB constructor.
func TestBadTLBGeometryIsAnError(t *testing.T) {
	bad := virtuoso.ScaledConfig()
	bad.MMUCfg.ITLBWays = 0
	if _, err := virtuoso.Open(virtuoso.WithConfig(bad), tinyScale(), virtuoso.WithWorkload("JSON")); err == nil || !strings.Contains(err.Error(), "L1I-TLB") {
		t.Fatalf("Open with ITLBWays = 0: err = %v, want an L1I-TLB geometry error", err)
	}
	bad = virtuoso.ScaledConfig()
	bad.MMUCfg.PWCWays = 3
	if _, err := virtuoso.Open(virtuoso.WithConfig(bad), tinyScale(), virtuoso.WithWorkload("JSON")); err == nil || !strings.Contains(err.Error(), "PWC") {
		t.Fatalf("Open with 4 PWC entries over 3 ways: err = %v, want a PWC geometry error", err)
	}

	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 20_000
	sweep := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"JSON"},
		Seeds:     []uint64{1, 2},
		Params:    virtuoso.WorkloadParams{Scale: 0.05},
		Configure: func(cfg *virtuoso.Config, p virtuoso.Point) error {
			if p.Seed == 2 {
				cfg.MMUCfg.STLBWays = 3 // 128 entries do not split into 3 ways
			}
			return nil
		},
	}
	if _, err := sweep.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "L2-STLB") {
		t.Fatalf("sweep with a 3-way STLB point: err = %v, want an L2-STLB geometry error", err)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := virtuoso.ParseMode("emulatoin"); err == nil {
		t.Error("ParseMode accepted a typo")
	}
	m, err := virtuoso.ParseMode("emulation")
	if err != nil || m != virtuoso.Emulation {
		t.Errorf("ParseMode(emulation) = %v, %v", m, err)
	}
	for _, d := range virtuoso.KnownDesigns() {
		if _, err := virtuoso.ParseDesign(string(d)); err != nil {
			t.Errorf("ParseDesign rejected known design %q: %v", d, err)
		}
	}
	for _, p := range virtuoso.KnownPolicies() {
		if _, err := virtuoso.ParsePolicy(string(p)); err != nil {
			t.Errorf("ParsePolicy rejected known policy %q: %v", p, err)
		}
	}
}

func TestOpenRunAndSessionSingleUse(t *testing.T) {
	sess, err := virtuoso.Open(
		virtuoso.WithScaledConfig(),
		tinyScale(),
		virtuoso.WithWorkload("JSON"),
		virtuoso.WithDesign(virtuoso.DesignRadix),
		virtuoso.WithPolicy(virtuoso.PolicyTHP),
		virtuoso.WithSeed(7),
		virtuoso.WithMaxInstructions(100_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Config().Seed; got != 7 {
		t.Errorf("Config().Seed = %d, want 7", got)
	}
	m, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.AppInsts == 0 || m.Cycles == 0 {
		t.Errorf("empty metrics: app=%d cycles=%d", m.AppInsts, m.Cycles)
	}
	if _, err := sess.Run(); err == nil {
		t.Error("second Run on the same session should fail")
	}
}

func TestSessionRunContextCancelled(t *testing.T) {
	sess, err := virtuoso.Open(
		virtuoso.WithScaledConfig(),
		tinyScale(),
		virtuoso.WithWorkload("JSON"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.RunContext(ctx); err != context.Canceled {
		t.Errorf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	sess, err := virtuoso.Open(
		virtuoso.WithScaledConfig(),
		tinyScale(),
		virtuoso.WithWorkload("JSON"),
		virtuoso.WithMaxInstructions(100_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := sess.Result(m)

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back virtuoso.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != r.Workload || back.Design != r.Design || back.Policy != r.Policy ||
		back.Mode != r.Mode || back.Seed != r.Seed {
		t.Errorf("config echo changed: %+v vs %+v", back, r)
	}
	if back.Metrics.Cycles != m.Cycles || back.Metrics.IPC != m.IPC || back.Metrics.MinorFaults != m.MinorFaults {
		t.Errorf("metrics changed across round trip")
	}
	if m.PFLatNs != nil {
		if back.Metrics.PFLatNs == nil {
			t.Fatal("fault latency series lost in round trip")
		}
		if got, want := back.Metrics.PFLatNs.Len(), m.PFLatNs.Len(); got != want {
			t.Errorf("series length %d, want %d", got, want)
		}
		if got, want := back.Metrics.PFLatNs.Sum(), m.PFLatNs.Sum(); got != want {
			t.Errorf("series sum %v, want %v", got, want)
		}
	}

	// Re-marshalling the decoded result must reproduce the bytes.
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("round-tripped result marshals differently")
	}
}
