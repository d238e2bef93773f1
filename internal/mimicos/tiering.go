package mimicos

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tier"
)

// Tiered memory (ROADMAP item 4): when Config.Tiers lists slow tiers,
// MimicOS threads them between DRAM and swap. Slow-tier pages are
// unmapped — demotion removes the PTE, so the next access faults and the
// fault handler consults the tier manager before the anonymous/file
// paths. That fault is the promotion path (Linux's NUMA-hint-fault
// promotion, imitated on the fault clock); reclaim under DRAM pressure
// becomes tier-aware demotion with evictions cascading down the
// hierarchy until the terminal swap tier absorbs them. All migration
// time is charged to the simulated clock through the tracer: device
// latency/bandwidth via Delay (so it shows up like swap I/O does) and
// the kernel-side copy via CopyRange through a per-tier bounce buffer.

// tiersEnabled reports whether slow tiers are configured.
func (k *Kernel) tiersEnabled() bool { return k.tiers.Enabled() }

// SetTierPolicy installs the migration policy in place of the default
// hotcold (the engine's hook for every named policy). Must precede the
// first fault.
func (k *Kernel) SetTierPolicy(p tier.Policy) {
	if k.tiers != nil {
		k.tiers.SetPolicy(p)
	}
}

// TierPolicy returns the active migration policy (nil without tiers).
func (k *Kernel) TierPolicy() tier.Policy {
	if k.tiers == nil {
		return nil
	}
	return k.tiers.Policy()
}

// TierStats returns the per-tier counter snapshot (nil without tiers).
func (k *Kernel) TierStats() []tier.Stats {
	if !k.tiersEnabled() {
		return nil
	}
	return k.tiers.Stats()
}

// TierPageCount returns the number of pages resident in slow tiers.
func (k *Kernel) TierPageCount() int {
	if !k.tiersEnabled() {
		return 0
	}
	return k.tiers.PageCount()
}

// touchHeat is the policy Touch applied at fault-time mapping sites;
// it returns zero heat when tiers are off so the flat configuration
// stays byte-identical.
func (k *Kernel) touchHeat(heat uint32) uint32 {
	if !k.tiersEnabled() {
		return 0
	}
	return k.tiers.Policy().Touch(heat)
}

// tierLookup finds the slow-tier record covering va, if any.
func (k *Kernel) tierLookup(p *Process, va mem.VAddr) (tier.Page, int, bool) {
	if !k.tiersEnabled() {
		return tier.Page{}, 0, false
	}
	return k.tiers.Lookup(p.PID, va)
}

// reclaim frees DRAM above the watermark: tier-aware demotion when slow
// tiers are configured, the classic direct-to-swap path otherwise.
func (k *Kernel) reclaim(p *Process, tr *instrument.Tracer, now uint64) {
	if k.tiersEnabled() {
		k.tierReclaim(p, tr, now)
		return
	}
	k.directReclaim(p, tr, now)
}

// tierPromoteFault services a fault on a slow-tier page: allocate a DRAM
// frame, charge the tier read, copy the page up, and map it. This is the
// hint-fault promotion path — the access itself is the hotness signal.
func (k *Kernel) tierPromoteFault(p *Process, va mem.VAddr, key mem.VAddr, pg tier.Page, t int, tr *instrument.Tracer, now uint64) FaultOutcome {
	exit := tr.Enter("tier_promote")
	defer exit()
	tr.Atomic(k.lk.lru)
	tr.ALU(220) // hint-fault bookkeeping, migration target setup
	tr.TouchObject(k.tierKaddr[t], 2, 0)

	// DRAM full: demote something, then retry once.
	var frame mem.PAddr
	if !k.allocWithReclaim(p, tr, now, true, func() (ok bool) {
		frame, ok = k.Phys.Alloc4K()
		return ok
	}) {
		return k.segv(p)
	}

	cost := k.tiers.Spec(t).ReadCost(pg.Size.Bytes())
	tr.Delay(cost)
	k.tiers.AddReadCycles(t, cost)
	k.count(p, func(s *Stats) { s.MigrationCycles += cost })
	// Fill the frame through the tier bounce buffer.
	tr.CopyRange(frame, k.tierKaddr[t], pg.Size.Bytes())

	rp := residentPage{VA: pg.VA, Size: pg.Size, Frame: frame, Heat: k.tiers.Policy().Touch(pg.Heat)}
	out := k.installPage(p, key-(va-pg.VA), rp, false, false, tr, func(s *Stats) { s.Promotions++ })
	if !out.OK {
		k.Phys.Free(frame, pg.Size.Bytes()/(4*mem.KB))
		return k.segv(p)
	}
	k.tiers.Promote(p.PID, pg.VA)
	return out
}

// tierReclaim is the tier-aware replacement for directReclaim: cold 4K
// pages demote into slow tiers (the policy picks how deep); huge pages
// are not migrated — they keep the legacy direct swap-out, and only on
// the desperate pass, since splitting is not modeled.
func (k *Kernel) tierReclaim(p *Process, tr *instrument.Tracer, now uint64) {
	if p.resident.len() == 0 {
		return
	}
	exit := tr.Enter("tier_reclaim")
	defer exit()
	tr.Atomic(k.lk.lru)
	tr.ALU(420) // shrink_lruvec scan setup
	k.count(p, func(s *Stats) { s.ReclaimRuns++ })

	pol := k.tiers.Policy()
	const batch = 16
	evicted := 0
	for pass := 0; pass < 2 && evicted < batch; pass++ {
		scanned := 0
		for evicted < batch && scanned < 2*p.resident.len() {
			if p.clockHand >= p.resident.len() {
				p.clockHand = 0
			}
			idx := p.clockHand
			p.clockHand++
			scanned++
			rp := *p.resident.at(idx)
			if rp.Dead || rp.RestSeg {
				continue
			}
			tr.Load(k.lk.lru)
			tr.ALU(18)
			if rp.Size != mem.Page4K {
				if pass > 0 && k.swapOutPage(p, rp.VA, rp.Size, tr, now, false) {
					evicted++
				}
			} else if pass == 0 && !pol.Victim(rp.Heat, 0) {
				// Spared: second chance, decay in place.
				p.resident.at(idx).Heat = pol.Decay(rp.Heat)
				continue
			} else if k.demotePage(p, rp, tr, now) {
				evicted++
			}
			if k.Phys.UsedFraction() < k.Cfg.SwapThreshold-0.02 {
				return
			}
		}
	}
}

// demotePage migrates one resident 4K page from DRAM into the slow tier
// the policy selects, unmapping it so the next access promotes it back.
func (k *Kernel) demotePage(p *Process, rp residentPage, tr *instrument.Tracer, now uint64) bool {
	pol := k.tiers.Policy()
	t := pol.DemoteTo(k.tiers.SlowTiers(), rp.Heat)
	if t < 0 {
		t = 0
	}
	if t >= k.tiers.SlowTiers() {
		t = k.tiers.SlowTiers() - 1
	}
	if !k.tierMakeRoom(t, rp.Size.Bytes(), tr, now) {
		// Hierarchy wedged (tiers and swap full): legacy direct swap-out.
		return k.swapOutPage(p, rp.VA, rp.Size, tr, now, false)
	}

	exit := tr.Enter("tier_demote")
	defer exit()
	tr.Atomic(k.lk.lru)
	tr.ALU(240) // try_to_unmap, migration descriptor setup
	tr.TouchObject(k.tierKaddr[t], 1, 2)

	key := k.keyForNoCharge(p, rp.VA)
	if e, ok := p.PT.Lookup(key); !ok || !e.Present {
		return false
	}
	cost := k.tiers.Spec(t).WriteCost(rp.Size.Bytes())
	tr.Delay(cost)
	k.tiers.AddWriteCycles(t, cost)
	k.count(p, func(s *Stats) { s.MigrationCycles += cost })
	// Copy down through the tier bounce buffer.
	tr.CopyRange(k.tierKaddr[t], rp.Frame, rp.Size.Bytes())

	p.PT.Remove(key, tr)
	k.notifyUnmap(p.PID, rp.VA, rp.Size)
	tr.ALU(60) // TLB shootdown IPI bookkeeping
	k.Phys.Free(rp.Frame, rp.Size.Bytes()/(4*mem.KB))
	p.dropResident(rp.VA)
	p.RSS -= rp.Size.Bytes()
	k.tiers.Insert(t, tier.Page{
		PID: p.PID, VA: rp.VA, Size: rp.Size, Heat: pol.Decay(rp.Heat),
	})
	k.count(p, func(s *Stats) { s.Demotions++ })
	return true
}

// tierMakeRoom frees capacity in tier t for n more bytes, cascading
// victims down the hierarchy (t+1, then t+2, ...) and into swap at the
// terminal level. It returns false only when the whole hierarchy below
// t is wedged (every deeper tier and the swap file full).
func (k *Kernel) tierMakeRoom(t int, n uint64, tr *instrument.Tracer, now uint64) bool {
	for !k.tiers.HasRoom(t, n) {
		pg, ok := k.tiers.PickVictim(t)
		if !ok {
			return false
		}
		// Every record has a live owner: ExitProcess drops a process's
		// records before the process leaves k.procs.
		vp := k.procs[pg.PID]
		if t+1 < k.tiers.SlowTiers() {
			if !k.tierMakeRoom(t+1, pg.Size.Bytes(), tr, now) {
				// Deeper levels wedged: push this victim to swap instead.
				if !k.swapOutTierPage(vp, pg, tr, now) {
					return false
				}
				continue
			}
			exit := tr.Enter("tier_cascade")
			tr.Atomic(k.lk.lru)
			tr.ALU(160) // migration descriptor move between tier lists
			rc := k.tiers.Spec(t).ReadCost(pg.Size.Bytes())
			wc := k.tiers.Spec(t + 1).WriteCost(pg.Size.Bytes())
			tr.Delay(rc + wc)
			k.tiers.AddReadCycles(t, rc)
			k.tiers.AddWriteCycles(t+1, wc)
			k.count(vp, func(s *Stats) { s.MigrationCycles += rc + wc })
			tr.CopyRange(k.tierKaddr[t+1], k.tierKaddr[t], pg.Size.Bytes())
			k.tiers.Evict(pg.PID, pg.VA)
			k.tiers.Insert(t+1, pg)
			exit()
		} else if !k.swapOutTierPage(vp, pg, tr, now) {
			return false
		}
	}
	return true
}

// swapOutTierPage evicts a slow-tier page into the swap file — the
// terminal step of the cascade. Unlike swapOutPage the page is already
// unmapped (frame and RSS were released at demotion), so this installs a
// fresh swap PTE rather than converting a present one.
func (k *Kernel) swapOutTierPage(vp *Process, pg tier.Page, tr *instrument.Tracer, now uint64) bool {
	exit := tr.Enter("swap_out")
	defer exit()
	tr.Atomic(k.lk.swap)
	tr.ALU(240) // swap cache insert, writeback setup
	tr.TouchObject(k.swap.kaddr, 2, 1)

	slot, ok := k.writeSwap(vp, pg.Size, tr, now)
	if !ok {
		return false
	}

	tr.Atomic(k.lk.pt)
	if err := vp.PT.Insert(k.keyForNoCharge(vp, pg.VA), pagetable.Entry{
		Size: pg.Size, Swapped: true, SwapSlot: slot,
	}, tr); err != nil {
		k.swap.freeSlot(slot)
		return false
	}
	vp.noteSwapSlot(slot)
	k.tiers.Evict(pg.PID, pg.VA)
	return true
}

// tierSample imitates the access-bit sampling scan on the fault clock:
// every TierScanEveryNFaults faults a window of the faulting process's
// resident list is scanned and each page's heat decays (pages kept hot
// by faults — mappings and promotions — out-earn the decay).
func (k *Kernel) tierSample(p *Process, tr *instrument.Tracer) {
	if p.resident.len() == 0 {
		return
	}
	exit := tr.Enter("tier_scan")
	defer exit()
	tr.ALU(180) // scan control block, rmap locks
	pol := k.tiers.Policy()
	const window = 64
	limit := window
	if limit > p.resident.len() {
		limit = p.resident.len()
	}
	for i := 0; i < limit; i++ {
		if p.sampleHand >= p.resident.len() {
			p.sampleHand = 0
		}
		rp := p.resident.at(p.sampleHand)
		p.sampleHand++
		if i%8 == 0 {
			tr.Load(k.lk.pt)
			tr.ALU(12) // batched PTE access-bit read+clear
		}
		if rp.Dead {
			continue
		}
		rp.Heat = pol.Decay(rp.Heat)
	}
}
