package mimicos

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/tier"
)

// tierTestKernel builds a kernel under enough DRAM pressure to exercise
// the tier hierarchy: 32MB DRAM with a 0.5 watermark, the given slow
// tiers, and a swap file as the terminal tier.
func tierTestKernel(t *testing.T, specs []tier.Spec) *Kernel {
	t.Helper()
	return New(Config{
		PhysBytes:     32 * mem.MB,
		PTKind:        PTRadix,
		SwapBytes:     64 * mem.MB,
		SwapThreshold: 0.5,
		Tiers:         specs,
	}, nil)
}

func oneTier(bytes uint64) []tier.Spec {
	return []tier.Spec{{Name: "cxl", Bytes: bytes, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8}}
}

// faultRegion maps foot bytes anonymously and touches every 4K page.
func faultRegion(t *testing.T, k *Kernel, pid int, foot uint64) mem.VAddr {
	t.Helper()
	if k.Process(pid) == nil {
		k.CreateProcess(pid)
	}
	base := k.Mmap(pid, foot, MmapFlags{Anon: true})
	for off := uint64(0); off < foot; off += 4096 {
		if out := k.HandlePageFault(pid, base+mem.VAddr(off), true, 0); !out.OK {
			t.Fatalf("fault at %#x failed (free=%d)", off, k.Phys.FreePages())
		}
	}
	return base
}

// TestTierDemotionAndPromotion drives a footprint past DRAM into one
// slow tier and then re-touches a demoted page: pressure must demote
// (not swap — the tier has room), and the re-touch must hint-fault the
// page back to DRAM with the migration charged to simulated time.
func TestTierDemotionAndPromotion(t *testing.T) {
	k := tierTestKernel(t, oneTier(64*mem.MB))
	base := faultRegion(t, k, 1, 28*mem.MB)

	st := k.Stats()
	if st.Demotions == 0 {
		t.Fatal("no demotions above the watermark")
	}
	if st.SwapOuts != 0 {
		t.Fatalf("swapped %d pages while the slow tier had room", st.SwapOuts)
	}
	if st.MigrationCycles == 0 {
		t.Fatal("demotions charged no migration cycles")
	}
	ts := k.TierStats()
	if len(ts) != 1 || ts[0].Name != "cxl" {
		t.Fatalf("tier stats: %+v", ts)
	}
	if ts[0].PagesIn == 0 || ts[0].UsedBytes == 0 || ts[0].WriteCycles == 0 {
		t.Fatalf("tier saw no inbound traffic: %+v", ts[0])
	}

	// Find a demoted page and touch it: promotion, not a fresh fault.
	p := k.Process(1)
	var victim mem.VAddr
	for off := uint64(0); off < 28*mem.MB; off += 4096 {
		if _, _, ok := k.tiers.Lookup(1, base+mem.VAddr(off)); ok {
			victim = base + mem.VAddr(off)
			break
		}
	}
	if victim == 0 {
		t.Fatal("no page resident in the slow tier after pressure")
	}
	out := k.HandlePageFault(1, victim, false, 0)
	if !out.OK || out.Major {
		t.Fatalf("promotion fault: %+v", out)
	}
	if k.Stats().Promotions == 0 || p.Stat.Promotions == 0 {
		t.Fatalf("promotion not counted: %+v", k.Stats())
	}
	if _, _, ok := k.tiers.Lookup(1, victim); ok {
		t.Fatal("page still tier-resident after promotion")
	}
	if e, ok := p.PT.Lookup(victim); !ok || !e.Present {
		t.Fatalf("promoted page not mapped: %+v %v", e, ok)
	}
	if ts := k.TierStats(); ts[0].Promotions == 0 || ts[0].ReadCycles == 0 {
		t.Fatalf("tier read side not charged on promotion: %+v", ts[0])
	}
}

// TestTierCascadeToSwap squeezes a footprint through a slow tier too
// small to hold the cold set: the cascade must spill the overflow into
// the terminal swap tier instead of wedging or dropping pages.
func TestTierCascadeToSwap(t *testing.T) {
	k := tierTestKernel(t, oneTier(4*mem.MB))
	faultRegion(t, k, 1, 28*mem.MB)
	st := k.Stats()
	if st.Demotions == 0 {
		t.Fatal("no demotions")
	}
	if st.SwapOuts == 0 {
		t.Fatal("tier overflow never reached swap")
	}
	if used := k.tiers.UsedBytes(0); used > 4*mem.MB {
		t.Fatalf("tier over capacity: %d bytes", used)
	}
}

// TestTierAccountingNoLoss checks the core residency invariant under
// pressure with two tiers: every faulted 4K page is in exactly one
// place — mapped in DRAM, resident in a slow tier, or swapped — and the
// migration cycle counters reconcile with the per-tier device counters.
func TestTierAccountingNoLoss(t *testing.T) {
	specs := []tier.Spec{
		{Name: "cxl", Bytes: 8 * mem.MB, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
		{Name: "nvm", Bytes: 8 * mem.MB, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
	}
	k := tierTestKernel(t, specs)
	const foot = 30 * mem.MB
	base := faultRegion(t, k, 1, foot)
	p := k.Process(1)

	var mapped, tiered, swapped uint64
	for off := uint64(0); off < foot; off += 4096 {
		va := base + mem.VAddr(off)
		_, _, inTier := k.tiers.Lookup(1, va)
		e, ok := p.PT.Lookup(va)
		switch {
		case inTier && ok && e.Present:
			t.Fatalf("page %#x duplicated: mapped AND tier-resident", va)
		case inTier && ok && e.Swapped:
			t.Fatalf("page %#x duplicated: swapped AND tier-resident", va)
		case inTier:
			tiered++
		case ok && e.Present:
			mapped++
		case ok && e.Swapped:
			swapped++
		default:
			t.Fatalf("page %#x lost: no mapping, no tier record, no swap slot", va)
		}
	}
	if total := mapped + tiered + swapped; total != foot/4096 {
		t.Fatalf("accounted %d pages of %d", total, foot/4096)
	}
	if tiered == 0 || swapped == 0 {
		t.Fatalf("pressure did not exercise both levels: tiered=%d swapped=%d", tiered, swapped)
	}
	if got := uint64(k.TierPageCount()); got != tiered {
		t.Fatalf("manager counts %d resident pages, walk found %d", got, tiered)
	}

	var dev uint64
	for _, ts := range k.TierStats() {
		dev += ts.ReadCycles + ts.WriteCycles
	}
	if dev != k.Stats().MigrationCycles {
		t.Fatalf("migration cycles %d != per-tier device cycles %d", k.Stats().MigrationCycles, dev)
	}
}

// TestTierExitReleasesPages makes sure a process exiting with pages in
// slow tiers takes its records with it — in a multiprogrammed system
// leaked records would hold tier capacity forever.
func TestTierExitReleasesPages(t *testing.T) {
	k := tierTestKernel(t, oneTier(64*mem.MB))
	faultRegion(t, k, 1, 20*mem.MB)
	faultRegion(t, k, 2, 20*mem.MB)
	if k.TierPageCount() == 0 {
		t.Fatal("no tier residency after two-process pressure")
	}
	k.ExitProcess(1)
	if n := k.tiers.RemovePID(1); n != 0 {
		t.Fatalf("%d tier records leaked past process exit", n)
	}
	k.ExitProcess(2)
	if k.TierPageCount() != 0 {
		t.Fatalf("%d tier records survive all exits", k.TierPageCount())
	}
	if k.tiers.UsedBytes(0) != 0 {
		t.Fatalf("tier occupancy %d bytes after all exits", k.tiers.UsedBytes(0))
	}
}

// TestFlatConfigHasNoTierSideEffects pins the flat-memory contract:
// without Tiers configured, the tier hooks are inert — no stats, no
// policy, zero heat — so pre-tiering behaviour is bit-for-bit intact.
func TestFlatConfigHasNoTierSideEffects(t *testing.T) {
	k := testKernel(t, nil)
	if k.tiersEnabled() {
		t.Fatal("tiers enabled on a flat config")
	}
	if k.TierStats() != nil || k.TierPageCount() != 0 || k.TierPolicy() != nil {
		t.Fatal("flat config leaks tier state")
	}
	if h := k.touchHeat(7); h != 0 {
		t.Fatalf("flat config assigns heat %d", h)
	}
}

// wedgeKernel builds a kernel with a 4-page CXL tier over an NVM tier
// of nvmBytes and a one-slot swap file, one process with an unfaulted
// anonymous VMA, and helpers: demote records an unmapped page in tier
// t, and where reports 't' for a tier-resident page and 's' for a
// swapped one, failing the test for a page in both places or neither.
func wedgeKernel(t *testing.T, nvmBytes uint64) (k *Kernel, demote func(tier int) mem.VAddr, where func(mem.VAddr) byte) {
	t.Helper()
	k = New(Config{
		PhysBytes:     32 * mem.MB,
		PTKind:        PTRadix,
		SwapBytes:     4 * mem.KB,
		SwapThreshold: 0.5,
		Tiers: []tier.Spec{
			{Name: "cxl", Bytes: 16 * mem.KB, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
			{Name: "nvm", Bytes: nvmBytes, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
		},
	}, nil)
	p := k.CreateProcess(1)
	next := k.Mmap(1, 64*mem.KB, MmapFlags{Anon: true})
	demote = func(t int) mem.VAddr {
		va := next
		next += 4 * mem.KB
		k.tiers.Insert(t, tier.Page{PID: 1, VA: va, Size: mem.Page4K})
		return va
	}
	where = func(va mem.VAddr) byte {
		t.Helper()
		_, _, inTier := k.tiers.Lookup(1, va)
		e, mapped := p.PT.Lookup(va)
		switch {
		case inTier && mapped:
			t.Fatalf("page %#x both tier-resident and mapped (%+v)", va, e)
		case inTier:
			return 't'
		case mapped && e.Swapped && !e.Present:
			return 's'
		}
		t.Fatalf("page %#x lost: no tier record, no swap entry", va)
		return 0
	}
	return k, demote, where
}

// makeRoomFailsInPlace fills the CXL tier again and requires
// tierMakeRoom to fail with swap full, leaving every page in vas where
// it was.
func makeRoomFailsInPlace(t *testing.T, k *Kernel, vas []mem.VAddr, where func(mem.VAddr) byte) {
	t.Helper()
	before := make([]byte, len(vas))
	for i, va := range vas {
		before[i] = where(va)
	}
	used0, used1, pages, outs := k.tiers.UsedBytes(0), k.tiers.UsedBytes(1), k.TierPageCount(), k.Stats().SwapOuts
	if k.tierMakeRoom(0, 4*mem.KB, k.Tracer, 0) {
		t.Fatal("tierMakeRoom succeeded with every level below CXL full")
	}
	for i, va := range vas {
		if got := where(va); got != before[i] {
			t.Fatalf("page %#x moved from %c to %c in a failed make-room", va, before[i], got)
		}
	}
	if k.tiers.UsedBytes(0) != used0 || k.tiers.UsedBytes(1) != used1 || k.TierPageCount() != pages {
		t.Fatalf("tiers changed in a failed make-room: CXL %d -> %d bytes, NVM %d -> %d bytes, %d -> %d pages",
			used0, k.tiers.UsedBytes(0), used1, k.tiers.UsedBytes(1), pages, k.TierPageCount())
	}
	if k.Stats().SwapOuts != outs || k.swap.used != 1 {
		t.Fatalf("swap-outs %d -> %d, swap slots used %d in a failed make-room", outs, k.Stats().SwapOuts, k.swap.used)
	}
}

// TestTierMakeRoomWedged drives tierMakeRoom's wedged-hierarchy
// branches directly, on a full 4-page CXL tier and a one-slot swap.
//
// Over an NVM tier too small to take a 4K page, the cascade cannot go
// down, so the CXL victim goes to swap instead. Over a full one-page
// NVM tier, the NVM victim goes to swap and the CXL victim cascades
// into its place. In both, once swap is full too, the call fails and
// no page moves or is lost.
func TestTierMakeRoomWedged(t *testing.T) {
	t.Run("nvm-too-small", func(t *testing.T) {
		k, demote, where := wedgeKernel(t, 2*mem.KB)
		var vas []mem.VAddr
		for i := 0; i < 4; i++ {
			vas = append(vas, demote(0))
		}
		if !k.tierMakeRoom(0, 4*mem.KB, k.Tracer, 0) {
			t.Fatal("tierMakeRoom failed with swap free")
		}
		if !k.tiers.HasRoom(0, 4*mem.KB) || k.tiers.UsedBytes(1) != 0 {
			t.Fatalf("CXL %d bytes, NVM %d bytes; want room in CXL and nothing in NVM",
				k.tiers.UsedBytes(0), k.tiers.UsedBytes(1))
		}
		p := k.Process(1)
		if st := k.Stats(); st.SwapOuts != 1 || p.Stat.SwapOuts != 1 || len(p.swapSlots) != 1 {
			t.Fatalf("swap-outs: kernel %d, process %d, slots noted %d; want 1 each",
				st.SwapOuts, p.Stat.SwapOuts, len(p.swapSlots))
		}
		swapped := 0
		for _, va := range vas {
			if where(va) == 's' {
				swapped++
			}
		}
		if swapped != 1 {
			t.Fatalf("%d pages swapped, want 1", swapped)
		}
		vas = append(vas, demote(0))
		makeRoomFailsInPlace(t, k, vas, where)
	})
	t.Run("all-full", func(t *testing.T) {
		k, demote, where := wedgeKernel(t, 4*mem.KB)
		var vas []mem.VAddr
		for i := 0; i < 4; i++ {
			vas = append(vas, demote(0))
		}
		nvmPage := demote(1)
		vas = append(vas, nvmPage)
		if !k.tierMakeRoom(0, 4*mem.KB, k.Tracer, 0) {
			t.Fatal("tierMakeRoom failed with swap free")
		}
		if where(nvmPage) != 's' || k.tiers.UsedBytes(1) != 4*mem.KB || !k.tiers.HasRoom(0, 4*mem.KB) {
			t.Fatalf("NVM page in %c, NVM %d bytes, CXL %d bytes; want the NVM page swapped and a CXL page cascaded into NVM",
				where(nvmPage), k.tiers.UsedBytes(1), k.tiers.UsedBytes(0))
		}
		vas = append(vas, demote(0))
		makeRoomFailsInPlace(t, k, vas, where)
	})
}
