package virtuoso

import "testing"

// TestKernelEventSize pins the kernel streams of the exec-xs machine
// (ScaledConfig, radix, THP, XS at scale 0.1, run to completion). With
// zeroing and copying recorded as range records, the largest kernel
// event is a few dozen records; recorded one record per cache line it
// was 32,802, because clearing one 2 MB page alone took 32,768. The
// instructions streamed to the core are those of the per-line form.
func TestKernelEventSize(t *testing.T) {
	cfg := ScaledConfig()
	cfg.Design = DesignRadix
	cfg.Policy = PolicyTHP
	cfg.MaxAppInsts = 0
	cfg.Seed = 1
	s, err := Open(WithConfig(cfg), WithWorkloadParams(WorkloadParams{Scale: 0.1}), WithWorkload("XS"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ch := s.sys.StreamChan
	t.Logf("stream channel: %+v", *ch)
	if ch.PeakRecords > 64 {
		t.Errorf("largest kernel event is %d records, want at most 64", ch.PeakRecords)
	}
	if ch.Streams != 17 || ch.Insts != 1_057_342 || ch.MemOps != 524_515 || ch.PeakStream != 66_091 {
		t.Errorf("streamed kernel work changed: %+v, want 17 streams, 1057342 insts, 524515 mem ops, peak 66091", *ch)
	}
}
