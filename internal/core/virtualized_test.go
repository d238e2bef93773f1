package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads"
)

func TestVirtualizedSystemRuns(t *testing.T) {
	tiny := workloads.Params{Scale: 0.02}

	cfg := DefaultVirtualizedConfig()
	cfg.GuestPhysBytes = 256 * mem.MB
	cfg.HostPhysBytes = 512 * mem.MB
	v, err := NewVirtualizedSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	gf, hf, kinsts, ipc := v.Run(byName(t, "2D-Sum", tiny), 150_000)
	if gf == 0 {
		t.Fatal("no guest faults")
	}
	if hf == 0 {
		t.Fatal("no hypervisor (EPT) faults — the nested hand-off never happened")
	}
	if kinsts == 0 {
		t.Fatal("no kernel instructions injected")
	}
	if ipc <= 0 {
		t.Fatal("no progress")
	}
	if v.segvs != 0 {
		t.Fatalf("segvs: %d", v.segvs)
	}
	// Both kernels must have produced streams over the channel.
	if v.StreamChan.Streams < gf+hf {
		t.Fatalf("streams %d < faults %d", v.StreamChan.Streams, gf+hf)
	}
	t.Logf("guest faults=%d host faults=%d kernel insts=%d ipc=%.3f", gf, hf, kinsts, ipc)
}

func TestVirtualizedNestedTLBEffect(t *testing.T) {
	tiny := workloads.Params{Scale: 0.02}

	cfg := DefaultVirtualizedConfig()
	cfg.GuestPhysBytes = 256 * mem.MB
	cfg.HostPhysBytes = 512 * mem.MB
	v, err := NewVirtualizedSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(byName(t, "2D-Sum", tiny), 150_000)
	// Nested 2D walks must cost more than native ones: with 4K pages a
	// radix-radix walk touches up to 4 guest steps × host translations.
	if avg := v.MMU.Stats().AvgWalkLatency(); avg < 10 {
		t.Fatalf("nested walks implausibly cheap: %.1f cycles", avg)
	}
}
