package virtuoso_test

import (
	"bytes"
	"encoding/json"
	"testing"

	virtuoso "repro"
)

// runNested runs 2D-Sum in a guest with 256 MB of guest-physical
// memory under the nested design and returns the session and metrics.
func runNested(t *testing.T) (*virtuoso.Session, virtuoso.Metrics) {
	t.Helper()
	cfg := virtuoso.DefaultConfig()
	cfg.OSCfg.PhysBytes = 256 << 20
	sess, err := virtuoso.Open(
		virtuoso.WithConfig(cfg),
		virtuoso.WithDesign(virtuoso.DesignNested),
		virtuoso.WithPolicy(virtuoso.PolicyBuddy),
		virtuoso.WithWorkload("2D-Sum"),
		virtuoso.WithWorkloadScale(0.02),
		virtuoso.WithMaxInstructions(150_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sess, m
}

func TestNestedSystemRuns(t *testing.T) {
	sess, m := runNested(t)
	gf := m.MinorFaults + m.MajorFaults
	if gf == 0 {
		t.Fatal("no guest faults")
	}
	if m.HostFaults == 0 {
		t.Fatal("no hypervisor (EPT) faults — the nested hand-off never happened")
	}
	if m.KernelInsts == 0 {
		t.Fatal("no kernel instructions injected")
	}
	if m.IPC <= 0 {
		t.Fatal("no progress")
	}
	if m.Segvs != 0 {
		t.Fatalf("segvs: %d", m.Segvs)
	}
	// Both kernels must have produced streams over the channel.
	if streams := sess.System().StreamChan.Streams; streams < gf+m.HostFaults {
		t.Fatalf("streams %d < faults %d", streams, gf+m.HostFaults)
	}
	t.Logf("guest faults=%d host faults=%d kernel insts=%d ipc=%.3f", gf, m.HostFaults, m.KernelInsts, m.IPC)

	// Outside the nested design the field is zero and absent from JSON,
	// so every other design's reports keep their bytes.
	data, err := json.Marshal(virtuoso.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("HostFaults")) {
		t.Fatal("a zero HostFaults is rendered in JSON")
	}
}

func TestNestedTLBEffect(t *testing.T) {
	_, m := runNested(t)
	// Nested 2D walks must cost more than native ones: with 4K pages a
	// radix-radix walk touches up to 4 guest steps × host translations.
	if m.AvgPTWLat < 10 {
		t.Fatalf("nested walks implausibly cheap: %.1f cycles", m.AvgPTWLat)
	}
}
