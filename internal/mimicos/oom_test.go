package mimicos

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/tier"
)

// TestOutOfMemoryReclaimRetry drives an undersized kernel out of
// physical memory. Its reclaim watermark (a used fraction of 1) is never
// crossed after a fault, so every reclaim is the one inside a fault: the
// allocation fails, the kernel reclaims (swap-out when flat, demotion
// when tiered) and retries. Under THP with no free 2MB block, every
// region first falls back to buddy 4K pages.
func TestOutOfMemoryReclaimRetry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tiers []tier.Spec
		thp   bool
	}{
		{"flat/buddy", nil, false},
		{"flat/thp", nil, true},
		{"tiered/buddy", oneTier(64 * mem.MB), false},
		{"tiered/thp", oneTier(64 * mem.MB), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(Config{
				PhysBytes:     32 * mem.MB,
				PTKind:        PTRadix,
				SwapBytes:     64 * mem.MB,
				SwapThreshold: 1,
				Tiers:         tc.tiers,
			}, nil)
			reclaim := "direct_reclaim"
			if tc.tiers != nil {
				reclaim = "tier_reclaim"
			}
			if tc.thp {
				k.SetPolicy(&LinuxTHPPolicy{})
				k.Phys.Fragment(0, 1) // no free 2MB blocks
			}
			k.CreateProcess(1)
			const foot = 40 * mem.MB // above physical memory
			base := k.Mmap(1, foot, MmapFlags{Anon: true})
			retries := 0
			for off := uint64(0); off < foot; off += 4096 {
				free := k.Phys.FreePages()
				runs := k.Stats().ReclaimRuns
				if out := k.HandlePageFault(1, base+mem.VAddr(off), true, 0); !out.OK || out.Size != mem.Page4K {
					t.Fatalf("fault at +%#x with %d free pages: %+v", off, free, out)
				}
				if k.Stats().ReclaimRuns == runs {
					continue
				}
				if free != 0 {
					t.Fatalf("fault at +%#x reclaimed with %d free pages: only an out-of-memory retry may", off, free)
				}
				retries++
				if n := k.TakeStream().Instructions(); n < 1000 {
					t.Fatalf("retried fault at +%#x streamed only %d instructions", off, n)
				}
			}
			st := k.Stats()
			if retries == 0 || st.ReclaimRuns != uint64(retries) {
				t.Fatalf("%d out-of-memory retries, %d reclaim runs", retries, st.ReclaimRuns)
			}
			if st.MinorFaults != foot/4096 || st.SegvFaults != 0 {
				t.Fatalf("%d minor faults, %d segvs; want %d and 0", st.MinorFaults, st.SegvFaults, foot/4096)
			}
			if tc.tiers != nil && st.Demotions == 0 {
				t.Fatal("tiered reclaim demoted nothing")
			}
			if tc.tiers == nil && st.SwapOuts == 0 {
				t.Fatal("flat reclaim swapped nothing out")
			}
			if tc.thp && (st.THPFallback4K == 0 || st.FaultsBySize[mem.Page2M] != 0) {
				t.Fatalf("THP did not fall back to buddy 4K pages: %d fallbacks, %d 2M faults", st.THPFallback4K, st.FaultsBySize[mem.Page2M])
			}
			for _, r := range k.Tracer.Stats() {
				if r.Name == reclaim && r.Calls != uint64(retries) {
					t.Fatalf("%s ran %d times, want %d", reclaim, r.Calls, retries)
				}
			}
			t.Logf("%d retries, %d swap-outs, %d demotions, %d THP fallbacks", retries, st.SwapOuts, st.Demotions, st.THPFallback4K)
		})
	}
}
