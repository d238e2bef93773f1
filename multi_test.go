package virtuoso_test

import (
	"encoding/json"
	"strings"
	"testing"

	virtuoso "repro"
)

// multiOpts is the shared configuration of the multiprogrammed
// determinism runs.
func multiOpts() []virtuoso.Option {
	return []virtuoso.Option{
		virtuoso.WithScaledConfig(),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithProcesses("RND", "SEQ"),
		virtuoso.WithMaxInstructions(120_000),
		virtuoso.WithQuantum(30_000),
		virtuoso.WithSeed(9),
	}
}

// multiJSON renders a multiprogrammed Result with host-side fields
// zeroed; everything else must match bit for bit across runs.
func multiJSON(t *testing.T, r virtuoso.Result) string {
	t.Helper()
	r.Index = 0
	r.Metrics.WallTime = 0
	r.Metrics.SimHeapBytes = 0
	if r.Multi != nil {
		mm := *r.Multi
		mm.Aggregate.WallTime = 0
		mm.Aggregate.SimHeapBytes = 0
		r.Multi = &mm
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMultiRunDeterminism is the multiprogramming acceptance criterion:
// a 2-process mix runs both address spaces to completion with
// per-process and aggregate metrics, and running it twice — and inside
// a parallel Sweep — produces byte-identical JSON Results.
func TestMultiRunDeterminism(t *testing.T) {
	run := func() virtuoso.Result {
		sess, err := virtuoso.Open(multiOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := sess.RunMulti()
		if err != nil {
			t.Fatal(err)
		}
		for _, pm := range mm.Procs {
			if !pm.Finished {
				t.Fatalf("process %d (%s) did not run to completion", pm.PID, pm.Workload)
			}
			if pm.AppInsts == 0 || pm.OS.MinorFaults == 0 {
				t.Fatalf("process %d: empty per-process metrics", pm.PID)
			}
		}
		if mm.Aggregate.AppInsts == 0 {
			t.Fatal("empty aggregate metrics")
		}
		return sess.MultiResult(mm)
	}
	a, b := run(), run()
	aj, bj := multiJSON(t, a), multiJSON(t, b)
	if aj != bj {
		t.Errorf("two identical multiprogrammed runs diverged:\n a: %.300s\n b: %.300s", aj, bj)
	}

	// The same mix inside a parallel sweep (alongside sibling points)
	// must reproduce the standalone Result byte for byte.
	base := virtuoso.ScaledConfig()
	base.MaxAppInsts = 120_000
	base.QuantumCycles = 30_000
	base.Seed = 9
	sweep := &virtuoso.Sweep{
		Base:     base,
		Mixes:    [][]string{{"RND", "SEQ"}, {"SEQ", "RND"}},
		Params:   virtuoso.WorkloadParams{Scale: 0.05},
		Parallel: 4,
	}
	rep, err := sweep.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("sweep returned %d results, want 2", len(rep.Results))
	}
	if rep.Results[0].Workload != "RND+SEQ" || rep.Results[1].Workload != "SEQ+RND" {
		t.Fatalf("mix names: %q, %q", rep.Results[0].Workload, rep.Results[1].Workload)
	}
	if got := multiJSON(t, rep.Results[0]); got != aj {
		t.Errorf("swept mix Result differs from standalone run:\nsweep: %.300s\nsolo:  %.300s", got, aj)
	}
}

func TestMultiSessionAPIMisuse(t *testing.T) {
	sess, err := virtuoso.Open(multiOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err == nil || !strings.Contains(err.Error(), "RunMulti") {
		t.Errorf("Run on a multi session = %v, want RunMulti hint", err)
	}
	if _, _, err := sess.Record(t.TempDir() + "/x.trc"); err == nil {
		t.Error("Record on a multi session should fail")
	}
	if len(sess.Mix()) != 2 || sess.Workload() != nil {
		t.Errorf("mix accessors: mix=%d workload=%v", len(sess.Mix()), sess.Workload())
	}

	single, err := virtuoso.Open(virtuoso.WithScaledConfig(), virtuoso.WithWorkload("JSON"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.RunMulti(); err == nil {
		t.Error("RunMulti on a single-workload session should fail")
	}

	if _, err := virtuoso.Open(virtuoso.WithProcesses()); err == nil {
		t.Error("WithProcesses() with no names should fail")
	}
	if _, err := virtuoso.Open(virtuoso.WithProcesses("nope")); err == nil {
		t.Error("WithProcesses with an unknown name should fail")
	}

	// Selector precedence: the last workload selection wins.
	sess2, err := virtuoso.Open(
		virtuoso.WithProcesses("RND", "SEQ"),
		virtuoso.WithWorkload("JSON"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess2.Mix()) != 0 || sess2.Workload() == nil {
		t.Error("a later WithWorkload should displace WithProcesses")
	}
}

// TestMultiHashTableExhaustionIsAnError runs a two-process mix on the
// global hash-table designs, whose per-process table needs a contiguous
// run of frames that the fragmented memory no longer has by the second
// process. Creating that process must fail the run with an error, not
// panic.
func TestMultiHashTableExhaustionIsAnError(t *testing.T) {
	for _, d := range []virtuoso.DesignName{virtuoso.DesignHDC, virtuoso.DesignHT} {
		sess, err := virtuoso.Open(
			virtuoso.WithScaledConfig(),
			virtuoso.WithWorkloadScale(0.05),
			virtuoso.WithDesign(d),
			virtuoso.WithProcesses("BFS", "RND"),
			virtuoso.WithMaxInstructions(150_000),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.RunMulti()
		want := "mimicos: create process 2: pagetable: cannot allocate " + strings.ToUpper(string(d)) + " table"
		if err == nil || err.Error() != want {
			t.Errorf("%s: RunMulti error %v, want %q", d, err, want)
		}
	}
}
