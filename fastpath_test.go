package virtuoso_test

// Differential determinism harness for the engine's fast lane: every
// batched/devirtualized/pooled hot-path optimization must produce
// byte-identical Results to the unbatched per-instruction reference
// loop (WithReferencePath). The matrix spans translation designs,
// allocation policies (nested translation included), workloads,
// simulation modes, and all three run shapes — single-process,
// multiprogrammed, and trace replay — comparing Report.CanonicalJSON of
// both paths.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	virtuoso "repro"
)

// fastpathInsts bounds each matrix point. Long enough to exercise
// faults, TLB fills, page-walks, prefetchers, and (multiprogrammed)
// several scheduling quanta; short enough that the whole matrix stays
// in unit-test time.
const fastpathInsts = 120_000

// canonicalSingle runs one single-process configuration on the chosen
// loop and returns the canonical report bytes and the run's metrics.
func canonicalSingle(t *testing.T, ref bool, opts ...virtuoso.Option) ([]byte, virtuoso.Metrics) {
	t.Helper()
	all := append([]virtuoso.Option{
		virtuoso.WithScaledConfig(),
		tinyScale(),
		virtuoso.WithMaxInstructions(fastpathInsts),
		virtuoso.WithReferencePath(ref),
	}, opts...)
	sess, err := virtuoso.Open(all...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := &virtuoso.Report{Results: []virtuoso.Result{sess.Result(m)}, Points: 1}
	data, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, m
}

// requireNestedFaults fails a nested-translation point that exercised
// no guest fault or no EPT violation: its equivalence would be vacuous.
func requireNestedFaults(t *testing.T, m virtuoso.Metrics) {
	t.Helper()
	if m.MinorFaults+m.MajorFaults == 0 || m.HostFaults == 0 {
		t.Fatalf("nested run exercised no nested faults (guest %d, host %d); matrix point is vacuous",
			m.MinorFaults+m.MajorFaults, m.HostFaults)
	}
}

func diffReports(t *testing.T, fast, reference []byte) {
	t.Helper()
	if bytes.Equal(fast, reference) {
		return
	}
	// Locate the first divergent line so a failure names the metric.
	fl := bytes.Split(fast, []byte("\n"))
	rl := bytes.Split(reference, []byte("\n"))
	for i := 0; i < len(fl) && i < len(rl); i++ {
		if !bytes.Equal(fl[i], rl[i]) {
			t.Fatalf("fast path diverges from reference at line %d:\n  fast: %s\n  ref:  %s", i+1, fl[i], rl[i])
		}
	}
	t.Fatalf("fast path report length %d != reference %d", len(fast), len(reference))
}

func TestFastPathEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		design   virtuoso.DesignName
		policy   virtuoso.PolicyName
		workload string
		extra    []virtuoso.Option
	}{
		{"radix/thp/BFS", virtuoso.DesignRadix, virtuoso.PolicyTHP, "BFS", nil},
		{"radix/bd/RND", virtuoso.DesignRadix, virtuoso.PolicyBuddy, "RND", nil},
		{"radix/eager/SEQ", virtuoso.DesignRadix, virtuoso.PolicyEager, "SEQ", nil},
		{"ech/thp/BFS", virtuoso.DesignECH, virtuoso.PolicyTHP, "BFS", nil},
		{"ht/bd/RND", virtuoso.DesignHT, virtuoso.PolicyBuddy, "RND", nil},
		{"hdc/cr-thp/RND", virtuoso.DesignHDC, virtuoso.PolicyCRTHP, "RND", nil},
		{"utopia/utopia/BFS", virtuoso.DesignUtopia, virtuoso.PolicyUtopia, "BFS", nil},
		{"rmm/eager/RND", virtuoso.DesignRMM, virtuoso.PolicyEager, "RND", nil},
		{"midgard/thp/BFS", virtuoso.DesignMidgard, virtuoso.PolicyTHP, "BFS", nil},
		{"directseg/ar-thp/BFS", virtuoso.DesignDirectSeg, virtuoso.PolicyARTHP, "BFS", nil},
		{"nested/bd/RND", virtuoso.DesignNested, virtuoso.PolicyBuddy, "RND", nil},
		{"emulation/radix/bd/SEQ", virtuoso.DesignRadix, virtuoso.PolicyBuddy, "SEQ",
			[]virtuoso.Option{virtuoso.WithMode(virtuoso.Emulation)}},
		{"tiered/radix/bd/RND", virtuoso.DesignRadix, virtuoso.PolicyBuddy, "RND",
			[]virtuoso.Option{
				virtuoso.WithTiers(
					virtuoso.TierSpec{Name: "cxl", Bytes: 64 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
					virtuoso.TierSpec{Name: "nvm", Bytes: 128 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
				),
				virtuoso.WithTierPolicy(virtuoso.TierPolicyClock),
			}},
		{"memtrace/radix/thp/RND", virtuoso.DesignRadix, virtuoso.PolicyTHP, "RND",
			[]virtuoso.Option{virtuoso.WithFrontend(virtuoso.FrontendMemTrace)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]virtuoso.Option{
				virtuoso.WithWorkload(tc.workload),
				virtuoso.WithDesign(tc.design),
				virtuoso.WithPolicy(tc.policy),
			}, tc.extra...)
			fast, m := canonicalSingle(t, false, opts...)
			ref, _ := canonicalSingle(t, true, opts...)
			diffReports(t, fast, ref)
			if tc.design == virtuoso.DesignNested {
				requireNestedFaults(t, m)
			}
		})
	}
}

func TestFastPathEquivalenceMulti(t *testing.T) {
	cases := []struct {
		name      string
		design    virtuoso.DesignName
		retention bool
	}{
		{"flush", virtuoso.DesignRadix, false},
		{"asid-retention", virtuoso.DesignRadix, true},
		// Two guest processes, each with its own nested TLB over the
		// one hypervisor mapping.
		{"nested", virtuoso.DesignNested, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var agg virtuoso.Metrics
			run := func(ref bool) []byte {
				sess, err := virtuoso.Open(
					virtuoso.WithScaledConfig(),
					tinyScale(),
					virtuoso.WithProcesses("BFS", "RND"),
					virtuoso.WithDesign(tc.design),
					virtuoso.WithMaxInstructions(150_000),
					virtuoso.WithASIDRetention(tc.retention),
					virtuoso.WithReferencePath(ref),
				)
				if err != nil {
					t.Fatal(err)
				}
				mm, err := sess.RunMulti()
				if err != nil {
					t.Fatal(err)
				}
				agg = mm.Aggregate
				rep := &virtuoso.Report{Results: []virtuoso.Result{sess.MultiResult(mm)}, Points: 1}
				data, err := rep.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			diffReports(t, run(false), run(true))
			if tc.design == virtuoso.DesignNested {
				requireNestedFaults(t, agg)
			}
		})
	}
}

func TestFastPathEquivalenceReplay(t *testing.T) {
	dir := t.TempDir()

	// Record the same workload under both loops: the trace files must be
	// byte-identical (the frontend tap sees the same stream in the same
	// order), and so must the recording runs' metrics.
	record := func(ref bool, name string) ([]byte, []byte) {
		path := filepath.Join(dir, name)
		sess, err := virtuoso.Open(
			virtuoso.WithScaledConfig(),
			tinyScale(),
			virtuoso.WithWorkload("BFS"),
			virtuoso.WithMaxInstructions(fastpathInsts),
			virtuoso.WithReferencePath(ref),
		)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := sess.Record(path)
		if err != nil {
			t.Fatal(err)
		}
		rep := &virtuoso.Report{Results: []virtuoso.Result{sess.Result(m)}, Points: 1}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, raw
	}
	fastRep, fastRaw := record(false, "fast.trc")
	refRep, refRaw := record(true, "ref.trc")
	diffReports(t, fastRep, refRep)
	if !bytes.Equal(fastRaw, refRaw) {
		t.Fatal("trace recorded through the fast lane differs from the reference recording")
	}

	// The v1 input is a rewrite of the fast-lane recording.
	writeV1Copy(t, filepath.Join(dir, "fast.trc"), filepath.Join(dir, "fast1.trc"))

	// Replay the recorded traces under both loops and from every kind
	// of input — v2 blocks, v1 records, a v1→v2 conversion, and the
	// shared decoded-trace store (cold, then from memory). Each must
	// reproduce the reference replay byte for byte.
	replay := func(name string, ref bool, extra ...virtuoso.Option) []byte {
		opts := []virtuoso.Option{
			virtuoso.WithScaledConfig(),
			tinyScale(),
			virtuoso.WithTrace(filepath.Join(dir, name)),
			virtuoso.WithMaxInstructions(fastpathInsts),
			virtuoso.WithReferencePath(ref),
		}
		sess, err := virtuoso.Open(append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep := &virtuoso.Report{Results: []virtuoso.Result{sess.Result(m)}, Points: 1}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := replay("fast.trc", true)
	diffReports(t, replay("fast.trc", false), ref)
	diffReports(t, replay("fast1.trc", false), ref)
	if _, err := virtuoso.ConvertTrace(filepath.Join(dir, "fast1.trc"), filepath.Join(dir, "conv.trc")); err != nil {
		t.Fatal(err)
	}
	diffReports(t, replay("conv.trc", false), ref)
	store := virtuoso.NewTraceStore(0)
	diffReports(t, replay("fast.trc", false, virtuoso.WithTraceStore(store)), ref)
	diffReports(t, replay("fast.trc", false, virtuoso.WithTraceStore(store)), ref)
	st := store.Stats()
	if st.Decodes != 1 || st.Hits != 1 {
		t.Errorf("store replays: decodes=%d hits=%d, want 1/1", st.Decodes, st.Hits)
	}
}
