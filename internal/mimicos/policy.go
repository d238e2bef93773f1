package mimicos

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/rangetable"
	"repro/internal/utopia"
)

// AllocPolicy is a physical memory allocation policy for anonymous
// memory — the variable of Use Case 2 (§7.5, Fig. 16). AllocAnon returns
// the frame backing the page containing va, the page size chosen, whether
// the frame is already zeroed, and whether it belongs to a Utopia RestSeg.
type AllocPolicy interface {
	Name() string
	AllocAnon(k *Kernel, p *Process, vma *VMA, va mem.VAddr, tr *instrument.Tracer, now uint64) (frame mem.PAddr, size mem.PageSize, prezeroed, restseg, ok bool)
}

// BuddyPolicy ("BD") provides only 4 KB pages from the buddy allocator.
type BuddyPolicy struct{}

// Name implements AllocPolicy.
func (*BuddyPolicy) Name() string { return "BD" }

// AllocAnon implements AllocPolicy.
func (*BuddyPolicy) AllocAnon(k *Kernel, p *Process, vma *VMA, va mem.VAddr, tr *instrument.Tracer, now uint64) (mem.PAddr, mem.PageSize, bool, bool, bool) {
	frame, ok := k.allocBuddy4K(tr)
	return frame, mem.Page4K, false, false, ok
}

// LinuxTHPPolicy imitates Linux transparent huge pages (§5.1 steps 4-5):
// an anonymous fault on an empty 2MB region tries a huge page — from the
// pre-zeroed pool when available, else allocated and zeroed synchronously
// (the >10 µs outliers of Fig. 2) — and falls back to 4 KB plus a
// khugepaged collapse candidate when no 2MB block is free.
type LinuxTHPPolicy struct{}

// Name implements AllocPolicy.
func (*LinuxTHPPolicy) Name() string { return "THP" }

// AllocAnon implements AllocPolicy.
func (*LinuxTHPPolicy) AllocAnon(k *Kernel, p *Process, vma *VMA, va mem.VAddr, tr *instrument.Tracer, now uint64) (mem.PAddr, mem.PageSize, bool, bool, bool) {
	region := uint64(mem.Page2M.PageBase(va))
	if vma.coversRegion(va) && vma.region4K[region] == 0 {
		exit := tr.Enter("do_huge_pmd_anonymous_page")
		tr.ALU(160) // THP eligibility: vma flags, alignment, khugepaged hints
		if frame, ok := popFrame(&k.zeroPool); ok {
			tr.ALU(40)
			exit()
			k.count(p, func(s *Stats) { s.THPPoolHits++ })
			return frame, mem.Page2M, true, false, true
		}
		tr.Atomic(k.lk.buddy)
		tr.TouchObject(k.lk.buddy, 3, 1) // compound-page freelist scan
		if frame, ok := k.Phys.Alloc2M(); ok {
			exit()
			k.count(p, func(s *Stats) { s.THPDirectZero++ })
			return frame, mem.Page2M, false, false, true
		}
		tr.ALU(220) // failed compaction probe
		exit()
		k.count(p, func(s *Stats) { s.THPFallback4K++ })
		k.khuge.noteCandidate(p.PID, vma, va)
	}
	frame, ok := k.allocBuddy4K(tr)
	return frame, mem.Page4K, false, false, ok
}

// ReservationTHPPolicy is reservation-based THP (Navarro et al., OSDI'02;
// the CR-THP/AR-THP allocators of §7.5): the first 4 KB fault in a region
// reserves a whole 2MB block; subsequent faults fill frames inside it; once
// the occupancy fraction passes UpgradeFrac the region is promoted in
// place to a 2MB mapping (zeroing the untouched remainder — the >1000×
// tail of Fig. 16).
type ReservationTHPPolicy struct {
	// UpgradeFrac is the promotion threshold (CR-THP: 0.5; AR-THP: 0.1).
	UpgradeFrac float64
	// PolicyName distinguishes CR-THP from AR-THP in reports.
	PolicyName string
}

// Name implements AllocPolicy.
func (rp *ReservationTHPPolicy) Name() string {
	if rp.PolicyName != "" {
		return rp.PolicyName
	}
	return "R-THP"
}

// AllocAnon implements AllocPolicy.
func (rp *ReservationTHPPolicy) AllocAnon(k *Kernel, p *Process, vma *VMA, va mem.VAddr, tr *instrument.Tracer, now uint64) (mem.PAddr, mem.PageSize, bool, bool, bool) {
	region := uint64(mem.Page2M.PageBase(va))
	res := vma.reservations[region]
	if res == nil && vma.coversRegion(va) {
		exit := tr.Enter("thp_reserve_region")
		tr.Atomic(k.lk.buddy)
		tr.ALU(120)
		if base, ok := k.Phys.Alloc2M(); ok {
			res = &reservation{base: base}
			vma.reservations[region] = res
			k.count(p, func(s *Stats) { s.Reservations++ })
		}
		exit()
	}
	if res == nil || res.upgraded {
		frame, ok := k.allocBuddy4K(tr)
		return frame, mem.Page4K, false, false, ok
	}

	idx := int(mem.Page2M.Offset(va) >> 12)
	res.touch(idx)
	frame := res.base + mem.PAddr(uint64(idx)*4*mem.KB)

	if float64(res.count) >= rp.UpgradeFrac*512 {
		// Promote: zero the 4 KB page being faulted plus every untouched
		// frame, tear down the region's 4 KB PTEs, install one 2MB PTE.
		rp.upgrade(k, p, vma, mem.VAddr(region), res, tr)
		return res.base, mem.Page2M, true, false, true
	}
	return frame, mem.Page4K, false, false, true
}

// upgrade promotes a reservation to a 2MB mapping in place.
func (rp *ReservationTHPPolicy) upgrade(k *Kernel, p *Process, vma *VMA, regionBase mem.VAddr, res *reservation, tr *instrument.Tracer) {
	exit := tr.Enter("thp_upgrade_reservation")
	defer exit()
	tr.Atomic(k.lk.pt)
	tr.ALU(300)

	// Zero every frame not yet faulted in (they become visible through
	// the huge mapping).
	for w := 0; w < 8; w++ {
		for b := 0; b < 64; b++ {
			idx := w*64 + b
			if res.touched[w]&(1<<uint(b)) != 0 {
				continue
			}
			tr.ZeroRange(res.base+mem.PAddr(idx*4096), 4*mem.KB)
		}
	}
	// Remove the individual PTEs that were installed for touched pages.
	for w := 0; w < 8; w++ {
		for b := 0; b < 64; b++ {
			idx := w*64 + b
			if res.touched[w]&(1<<uint(b)) == 0 {
				continue
			}
			va := regionBase + mem.VAddr(idx*4096)
			key := k.keyForNoCharge(p, va)
			if _, ok := p.PT.Remove(key, tr); ok {
				p.dropResident(va)
				p.RSS -= 4 * mem.KB
				k.notifyUnmap(p.PID, va, mem.Page4K)
			}
		}
	}
	vma.region4K[uint64(regionBase)] = 0
	res.upgraded = true
	res.count = 512
	k.count(p, func(s *Stats) { s.Upgrades++ })
	// The caller installs the 2MB PTE and resident entry.
}

// keyForNoCharge computes the translation key without charging kernel
// work (internal bookkeeping around an already-charged operation).
func (k *Kernel) keyForNoCharge(p *Process, va mem.VAddr) mem.VAddr {
	if p.Midgard == nil {
		return va
	}
	if mv, ok := p.Midgard.Find(va, nil); ok {
		return mem.VAddr(mv.Translate(va))
	}
	return va
}

// UtopiaPolicy allocates into Utopia RestSegs with hash placement
// (§7.5's "UT" allocators): the set index is a hash of the VPN, so
// allocation is a near-constant-time tag write — unless the set is full,
// which either falls back to the flexible segment or, in the Fig. 20
// configuration, evicts (swaps out) a resident page of the same set.
type UtopiaPolicy struct {
	// Label distinguishes configurations (e.g. "UT-32MB/16w").
	Label string
}

// Name implements AllocPolicy.
func (up *UtopiaPolicy) Name() string {
	if up.Label != "" {
		return up.Label
	}
	return "UT"
}

// AllocAnon implements AllocPolicy.
func (up *UtopiaPolicy) AllocAnon(k *Kernel, p *Process, vma *VMA, va mem.VAddr, tr *instrument.Tracer, now uint64) (mem.PAddr, mem.PageSize, bool, bool, bool) {
	if k.Utopia == nil {
		frame, ok := k.allocBuddy4K(tr)
		return frame, mem.Page4K, false, false, ok
	}
	if seg := k.Utopia.SegFor(mem.Page4K); seg != nil {
		if frame, ok := up.allocInSeg(k, p, seg, mem.Page4K.VPN(va), tr, now); ok {
			return frame, mem.Page4K, false, true, true
		}
	}
	// FlexSeg fallback: conventional buddy + radix mapping.
	frame, ok := k.allocBuddy4K(tr)
	return frame, mem.Page4K, false, false, ok
}

func (up *UtopiaPolicy) allocInSeg(k *Kernel, p *Process, seg *utopia.RestSeg, vpn uint64, tr *instrument.Tracer, now uint64) (mem.PAddr, bool) {
	exit := tr.Enter("utopia_alloc")
	defer exit()
	set := seg.SetOf(vpn)
	// Read the set's tag lines (SF membership + free-way scan).
	tr.ALU(45)
	for w := 0; w < seg.Ways; w += 8 {
		tr.Load(seg.TagPA(set, w))
	}
	if way, ok := seg.Alloc(vpn); ok {
		tr.Store(seg.TagPA(set, way))
		return seg.FramePA(set, way), true
	}
	if !k.Utopia.SwapOnFull {
		tr.ALU(30)
		return 0, false
	}
	// Fig. 20 configuration: the set is full — evict a victim to swap
	// even though other physical memory may be free.
	way, _ := seg.VictimOf(vpn)
	if evicted, ok := seg.Evict(set, way); ok {
		victimVA := mem.VAddr(evicted << seg.PageSize.Shift())
		k.swapOutPage(p, victimVA, seg.PageSize, tr, now, true)
	}
	if way, ok := seg.Alloc(vpn); ok {
		tr.Store(seg.TagPA(set, way))
		return seg.FramePA(set, way), true
	}
	return 0, false
}

// EagerPolicy is RMM's eager paging (§7.6.3): contiguous physical ranges
// are reserved when a VMA is created, so faults inside a range resolve to
// base+offset; the range table feeds the hardware range walker.
type EagerPolicy struct {
	// MaxOrderPages caps a single range (Table 4: max order 21 → 2^21
	// pages = 8 GB).
	MaxOrderPages uint64
}

// Name implements AllocPolicy.
func (*EagerPolicy) Name() string { return "RMM-Eager" }

// reserveRanges eagerly covers a new VMA with the largest contiguous
// ranges available.
func (ep *EagerPolicy) reserveRanges(k *Kernel, p *Process, v *VMA, tr *instrument.Tracer) {
	if p.RMM == nil {
		return
	}
	exit := tr.Enter("eager_reserve")
	defer exit()
	maxPages := ep.MaxOrderPages
	if maxPages == 0 {
		maxPages = 1 << 21
	}
	need := v.Len() / (4 * mem.KB)
	cursor := v.Start
	for need > 0 {
		want := need
		if want > maxPages {
			want = maxPages
		}
		base, got, ok := k.Phys.AllocLargestRange(1, want)
		if !ok {
			break
		}
		tr.ALU(180)
		tr.TouchObject(k.lk.buddy, 3, 1)
		r := rangetable.Range{VStart: cursor, VEnd: cursor + mem.VAddr(got*4*mem.KB), Base: base}
		i := p.RMM.Insert(r, tr)
		tr.Store(p.RMM.LeafPA(i))
		tr.ALU(32)
		cursor = r.VEnd
		need -= got
	}
}

// AllocAnon implements AllocPolicy.
func (ep *EagerPolicy) AllocAnon(k *Kernel, p *Process, vma *VMA, va mem.VAddr, tr *instrument.Tracer, now uint64) (mem.PAddr, mem.PageSize, bool, bool, bool) {
	if p.RMM != nil {
		exit := tr.Enter("eager_fault")
		r, ok := p.RMM.Find(mem.Page4K.PageBase(va), nil)
		tr.ALU(50)
		exit()
		if ok {
			return r.Translate(mem.Page4K.PageBase(va)), mem.Page4K, false, false, true
		}
	}
	frame, okb := k.allocBuddy4K(tr)
	return frame, mem.Page4K, false, false, okb
}

// Compile-time interface checks.
var (
	_ AllocPolicy = (*BuddyPolicy)(nil)
	_ AllocPolicy = (*LinuxTHPPolicy)(nil)
	_ AllocPolicy = (*ReservationTHPPolicy)(nil)
	_ AllocPolicy = (*UtopiaPolicy)(nil)
	_ AllocPolicy = (*EagerPolicy)(nil)
)
