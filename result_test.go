package virtuoso_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	virtuoso "repro"
	"repro/internal/stats"
)

// marshalIndentOracle renders r as the report encoders are defined to:
// json.MarshalIndent of the report, or of its canonical copy (host
// times and shard zeroed, Multi copied before its aggregate is zeroed,
// nil Results made an empty slice).
func marshalIndentOracle(r *virtuoso.Report, canonical bool) ([]byte, error) {
	if !canonical {
		return json.MarshalIndent(r, "", "  ")
	}
	out := *r
	out.Wall = 0
	out.Shard = ""
	out.Results = make([]virtuoso.Result, len(r.Results))
	for i, res := range r.Results {
		res.Metrics.WallTime = 0
		res.Metrics.SimHeapBytes = 0
		if res.Multi != nil {
			mm := *res.Multi
			mm.Aggregate.WallTime = 0
			mm.Aggregate.SimHeapBytes = 0
			res.Multi = &mm
		}
		out.Results[i] = res
	}
	return json.MarshalIndent(&out, "", "  ")
}

// checkReportJSON holds JSON and CanonicalJSON to the MarshalIndent
// oracle: the same bytes in an exactly sized buffer, or an error where
// the oracle errs. The receiver must come back unchanged.
func checkReportJSON(t *testing.T, r *virtuoso.Report) {
	t.Helper()
	before, beforeErr := json.Marshal(r)
	for _, canonical := range []bool{false, true} {
		want, wantErr := marshalIndentOracle(r, canonical)
		var got []byte
		var err error
		if canonical {
			got, err = r.CanonicalJSON()
		} else {
			got, err = r.JSON()
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("canonical=%v: error %v, MarshalIndent error %v", canonical, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("canonical=%v: output differs from MarshalIndent at byte %d of %d/%d:\n got %q\nwant %q",
				canonical, i, len(got), len(want), tail(got, i), tail(want, i))
		}
		if cap(got) != len(got) {
			t.Errorf("canonical=%v: cap %d, len %d; the buffer must be exactly sized", canonical, cap(got), len(got))
		}
	}
	after, afterErr := json.Marshal(r)
	if !bytes.Equal(before, after) || (beforeErr != nil) != (afterErr != nil) {
		t.Fatal("encoding modified the report")
	}
}

// tail returns up to 40 bytes of b from offset i.
func tail(b []byte, i int) []byte {
	return b[max(0, i-10):min(len(b), i+30)]
}

// seriesOf returns a series holding vals (nil vals: an empty series
// that never allocated).
func seriesOf(vals ...float64) *stats.Series {
	s := &stats.Series{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// testMetrics returns metrics with every scalar kind set, host times
// non-zero, and the given latency series.
func testMetrics(workload string, minor, major *stats.Series) virtuoso.Metrics {
	return virtuoso.Metrics{
		Workload: workload, Design: "radix", Policy: "thp",
		AppInsts: 123_456, KernelInsts: 789, Cycles: 1 << 40, IPC: 0.4375,
		L2TLBMPKI: 1e-7, AvgPTWLat: 31.25, MinorFaults: 12, MajorFaults: 3,
		PFLatNs: minor, MajorPFLatNs: major,
		WallTime: 1234 * time.Millisecond, SimHeapBytes: 5 << 20,
	}
}

// replayGridReport returns a report shaped like perfbench's
// replay-grid one: 64 XS points of which every other one carries a
// 1,300-value minor-fault latency series (cycles over a 2.9 GHz clock,
// as the engine records them). It renders to about 1.3 MB.
func replayGridReport() *virtuoso.Report {
	rep := &virtuoso.Report{Points: 64, SpecHash: "0123456789abcdef0123456789abcdef", Wall: 3 * time.Second}
	for i := range 64 {
		var minor *stats.Series
		if i%2 == 0 {
			minor = stats.NewSeries(1300)
			for j := range 1300 {
				minor.Add(float64(500+(j*7919+i*104729)%250_000) / 2.9)
			}
		}
		m := testMetrics("XS", minor, seriesOf())
		m.Cycles += uint64(i) * 7_919
		rep.Results = append(rep.Results, virtuoso.Result{Index: i, Workload: "XS", Design: virtuoso.DesignECH,
			Policy: virtuoso.PolicyBuddy, Mode: "imitation", Seed: uint64(i%4 + 1), Metrics: m})
	}
	return rep
}

func TestReportJSONMatchesMarshalIndent(t *testing.T) {
	long := make([]float64, 2000)
	for i := range long {
		long[i] = float64(i*i)*1.7 + 0.1
	}
	edge := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21, 9.99e20, 1e-300,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 1, -1, 42, 1 << 53, 123456789012, 0.5, 1e20, 1e-5}

	result := func(i int, m virtuoso.Metrics) virtuoso.Result {
		return virtuoso.Result{Index: i, Workload: m.Workload, Design: virtuoso.DesignRadix,
			Policy: virtuoso.PolicyTHP, Mode: "imitation", Seed: uint64(i + 1), Metrics: m}
	}
	multi := func() virtuoso.Result {
		agg := testMetrics("BFS+RND", seriesOf(edge...), seriesOf(3, 1e-7))
		agg.Tiers = []virtuoso.TierStats{{Name: "cxl", UsedBytes: 1 << 20, PagesIn: 9, PagesOut: 4, Promotions: 2}}
		r := result(3, agg)
		r.TierPolicy = "lru"
		r.Multi = &virtuoso.MultiMetrics{
			Mix: []string{"BFS", "RND"}, Quantum: 100_000, ASIDRetention: true,
			ContextSwitches: 17, TLBFlushes: 4, Aggregate: agg,
			Procs: []virtuoso.ProcessMetrics{{PID: 1, Workload: "BFS", Cycles: 7, IPC: 0.25}, {PID: 2, Workload: "RND", Finished: true}},
		}
		return r
	}
	tiered := func() virtuoso.Result {
		m := testMetrics("XS", seriesOf(long...), nil)
		m.Tiers = []virtuoso.TierStats{{Name: "cxl", PagesIn: 1}, {Name: "nvm", ReadCycles: 1e9}}
		m.HostFaults = 77
		return result(4, m)
	}

	cases := []struct {
		name string
		rep  virtuoso.Report
	}{
		{"nil results", virtuoso.Report{Points: 3, Wall: time.Second}},
		{"empty results", virtuoso.Report{Results: []virtuoso.Result{}, Points: 3, SpecHash: "abc"}},
		{"spec hash and shard", virtuoso.Report{Results: []virtuoso.Result{result(0, testMetrics("BFS", nil, nil))},
			Points: 8, SpecHash: "0123456789abcdef", Shard: "1/4", Wall: 99}},
		{"shard only", virtuoso.Report{Results: []virtuoso.Result{result(0, testMetrics("BFS", seriesOf(), nil))},
			Points: 8, Shard: "0/2", Wall: -5}},
		{"series shapes", virtuoso.Report{Results: []virtuoso.Result{
			result(0, testMetrics("a", nil, seriesOf())),
			result(1, testMetrics("b", seriesOf(1), seriesOf(edge...))),
			result(2, testMetrics("c", stats.NewSeries(4), seriesOf(long...))),
		}, Points: 3, SpecHash: "h"}},
		{"multi", virtuoso.Report{Results: []virtuoso.Result{multi(), result(1, testMetrics("x", nil, nil))}, Points: 2}},
		{"tiers and host faults", virtuoso.Report{Results: []virtuoso.Result{tiered()}, Points: 1, Wall: time.Minute}},
		{"replay-grid shape", *replayGridReport()},
		{"escaped names", virtuoso.Report{Results: []virtuoso.Result{result(0, testMetrics("<a&b>\"\\\u2028\xff", seriesOf(2), nil))},
			Points: 1, SpecHash: "<&>", Shard: "<1/2>"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkReportJSON(t, &tc.rep) })
	}

	t.Run("NaN metric", func(t *testing.T) {
		m := testMetrics("BFS", seriesOf(1, 2), nil)
		m.IPC = math.NaN()
		rep := &virtuoso.Report{Results: []virtuoso.Result{result(0, m)}, Points: 1}
		if _, err := rep.JSON(); err == nil {
			t.Error("JSON of a NaN metric succeeded")
		}
		if _, err := rep.CanonicalJSON(); err == nil {
			t.Error("CanonicalJSON of a NaN metric succeeded")
		}
		checkReportJSON(t, rep)
	})
	t.Run("NaN in series", func(t *testing.T) {
		rep := &virtuoso.Report{Results: []virtuoso.Result{multi()}, Points: 1}
		rep.Results[0].Multi.Aggregate.MajorPFLatNs = seriesOf(1, math.Inf(1))
		if _, err := rep.CanonicalJSON(); err == nil {
			t.Error("CanonicalJSON of an infinite latency succeeded")
		}
		checkReportJSON(t, rep)
	})
}
