package mimicos

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// FaultOutcome is the functional result of a page fault, returned to the
// simulator over the functional channel; the corresponding instruction
// stream is retrieved via TakeStream and injected through the
// instruction-stream channel.
type FaultOutcome struct {
	OK    bool // false = SIGSEGV
	Frame mem.PAddr
	Size  mem.PageSize
	Major bool // required device I/O
	// DeviceCycles is the SSD time embedded in the stream (swap and
	// page-cache misses); exposed for swap-activity accounting (Fig. 20).
	DeviceCycles uint64
}

// HandlePageFault runs the §5.1 / Fig. 6 page-fault flow for (pid, va)
// at simulated time now (used for device queueing).
func (k *Kernel) HandlePageFault(pid int, va mem.VAddr, write bool, now uint64) FaultOutcome {
	k.mu.Lock()
	defer k.mu.Unlock()

	p := k.procs[pid]
	tr := k.Tracer
	tr.Begin()
	exit := tr.Enter("__do_page_fault")
	tr.ALU(140) // exception entry, error-code decode, per-CPU state
	tr.Atomic(k.lk.mmap)
	k.faultCount++

	if k.Cfg.FullKernel {
		k.fullKernelNoise(tr, noiseFaultEntry)
	}

	// 1: find the virtual memory area.
	vma := k.findVMA(p, va, tr)
	if vma == nil {
		tr.ALU(120) // bad-area path, signal delivery setup
		exit()
		return k.segv(p)
	}

	// Page in hugetlbfs? (explicit huge-page VMAs bypass the normal path).
	if vma.HugeTLB {
		out := k.hugetlbFault(p, va, tr)
		k.postFault(p, tr, now)
		exit()
		return out
	}

	key := k.translationKey(p, va, tr)

	// Did a concurrent fault already resolve this page? (Also catches
	// retried faults after reservation upgrades.) Periodic daemon work
	// (khugepaged, reclaim, zero-pool) still runs: it is driven by the
	// fault clock, not the fault outcome.
	if e, ok := p.PT.Lookup(key); ok && e.Present {
		tr.ALU(60)
		k.postFault(p, tr, now)
		exit()
		return FaultOutcome{OK: true, Frame: e.Frame, Size: e.Size}
	}
	// RestSeg mappings live outside the page table entirely.
	if k.Utopia != nil {
		for _, seg := range k.Utopia.Segs {
			vpn := seg.PageSize.VPN(va)
			if way, ok := seg.Lookup(vpn); ok {
				tr.ALU(40)
				exit()
				return FaultOutcome{OK: true, Frame: seg.FramePA(seg.SetOf(vpn), way), Size: seg.PageSize}
			}
		}
	}

	var out FaultOutcome
	if e, ok := p.PT.Lookup(key); ok && e.Swapped {
		// 6: swapped-out anonymous page: consult the swap cache and
		// read the slot back from disk.
		out = k.swapInFault(p, va, key, e, tr, now)
	} else if pg, t, ok := k.tierLookup(p, va); ok {
		// Slow-tier page (unmapped): this access is the promotion hint
		// fault — migrate it back to DRAM.
		out = k.tierPromoteFault(p, va, key, pg, t, tr, now)
	} else if vma.File || vma.DAX {
		// 7-9: file-backed: try a 1GB mapping, then the page cache.
		out = k.fileFault(p, vma, va, key, tr, now)
	} else {
		// Anonymous memory: the physical allocation policy decides
		// (buddy 4K, THP variants, Utopia, eager paging).
		out = k.anonFault(p, vma, va, key, write, tr, now)
	}

	if out.OK {
		k.postFault(p, tr, now)
	}
	tr.ALU(80) // PTE flags, mm counters, return path
	exit()
	return out
}

// translationKey maps va into the key space the page table is indexed
// by: the virtual address itself, or the Midgard intermediate address
// when an intermediate address space is active, whose lookup is charged.
func (k *Kernel) translationKey(p *Process, va mem.VAddr, tr *instrument.Tracer) mem.VAddr {
	if p.Midgard != nil {
		tr.ALU(20)
	}
	return k.keyForNoCharge(p, va)
}

// anonFault services an anonymous-memory fault through the active
// allocation policy, zeroes the page if required, and installs the PTE.
func (k *Kernel) anonFault(p *Process, vma *VMA, va mem.VAddr, key mem.VAddr, write bool, tr *instrument.Tracer, now uint64) FaultOutcome {
	exit := tr.Enter("do_anonymous_page")
	defer exit()
	tr.ALU(90)

	var frame mem.PAddr
	var size mem.PageSize
	var prezeroed, restseg bool
	if !k.allocWithReclaim(p, tr, now, true, func() (ok bool) {
		frame, size, prezeroed, restseg, ok = k.policy.AllocAnon(k, p, vma, va, tr, now)
		return ok
	}) {
		return k.segv(p)
	}

	if !prezeroed {
		zexit := tr.Enter("clear_page")
		tr.ZeroRange(frame, size.Bytes())
		zexit()
	}

	rp := residentPage{VA: size.PageBase(va), Size: size, Frame: frame, RestSeg: restseg, Heat: k.touchHeat(0)}
	var out FaultOutcome
	if restseg {
		// Utopia RestSeg mappings bypass the page table: translation is
		// set-index plus tag match, which is the whole point (§7.5).
		// Invalidate any negative SF/TAR state cached by the MMU.
		tr.ALU(20)
		k.notifyUnmap(p.PID, rp.VA, size)
		out = k.account(p, rp, false, nil)
	} else if out = k.installPage(p, key-(va-rp.VA), rp, write, false, tr, nil); !out.OK {
		return k.segv(p)
	}
	if size == mem.Page4K {
		vma.region4K[uint64(mem.Page2M.PageBase(va))]++
	}
	return out
}

// fileFault services a file-backed (or DAX) fault: 1 GB mapping when the
// Fig. 6 conditions hold, else page-cache lookup with disk fallback.
func (k *Kernel) fileFault(p *Process, vma *VMA, va mem.VAddr, key mem.VAddr, tr *instrument.Tracer, now uint64) FaultOutcome {
	exit := tr.Enter("do_fault_file")
	defer exit()
	tr.ALU(110)

	// 3: 1GB page: VMA is DAX or file-backed, flags set, and a 1GB
	// contiguous region exists in the buddy free lists.
	if vma.Huge1G && k.Cfg.Enable1G && k.Cfg.PTKind == PTRadix {
		gexit := tr.Enter("alloc_1g_page")
		tr.Atomic(k.lk.buddy)
		tr.ALU(320) // free-list scan across orders
		tr.TouchObject(k.lk.buddy, 6, 0)
		frame, ok := k.Phys.Alloc1G()
		gexit()
		if ok {
			dev := k.fetchFromPageCache(p, vma, va, frame, mem.Page1G, tr, now)
			rp := residentPage{VA: mem.Page1G.PageBase(va), Size: mem.Page1G, Frame: frame, Heat: k.touchHeat(0)}
			if out := k.installPage(p, key-(va-rp.VA), rp, false, false, tr, func(s *Stats) { s.OneGigFaults++ }); out.OK {
				out.Major, out.DeviceCycles = dev > 0, dev
				return out
			}
			k.Phys.Free(frame, mem.Page1G.Bytes()/(4*mem.KB))
		}
		// Conditions not met: fall through to smaller pages.
	}

	var frame mem.PAddr
	if !k.allocWithReclaim(p, tr, now, true, func() (ok bool) {
		frame, ok = k.allocBuddy4K(tr)
		return ok
	}) {
		return k.segv(p)
	}
	dev := k.fetchFromPageCache(p, vma, va, frame, mem.Page4K, tr, now)

	rp := residentPage{VA: mem.Page4K.PageBase(va), Size: mem.Page4K, Frame: frame, Heat: k.touchHeat(0)}
	out := k.installPage(p, key-(va-rp.VA), rp, false, dev > 0, tr, nil)
	if !out.OK {
		return k.segv(p)
	}
	vma.region4K[uint64(mem.Page2M.PageBase(va))]++
	out.DeviceCycles = dev
	return out
}

// fetchFromPageCache resolves file data for [va, va+size): a page-cache
// hit costs an index lookup; a miss reads the disk (MQSim latency) and
// inserts the page. Returns the device cycles charged.
func (k *Kernel) fetchFromPageCache(p *Process, vma *VMA, va mem.VAddr, frame mem.PAddr, size mem.PageSize, tr *instrument.Tracer, now uint64) uint64 {
	exit := tr.Enter("page_cache_lookup")
	defer exit()
	filePage := uint64(va-vma.Start) >> 12
	keyObj := pcKey{file: vma.FileID, page: filePage}
	tr.ALU(70) // xarray descent
	tr.Load(k.lk.lru)

	if _, hit := k.pageCache[keyObj]; hit || k.Cfg.PrepopulatePageCache {
		k.count(p, func(s *Stats) { s.PageCacheHits++ })
		k.pageCache[keyObj] = frame
		// Mapping a cached page: no copy for DAX; copy a page otherwise
		// is avoided by mapping the cache page itself (we model the
		// common shared-mapping path).
		tr.ALU(40)
		return 0
	}
	k.count(p, func(s *Stats) { s.PageCacheMisses++ })
	var dev uint64 = 174_000 // stand-in when no disk is attached (~60µs)
	if k.Disk != nil {
		dev = k.Disk.Read(uint64(vma.FileID)<<32+filePage*4096, size.Bytes(), now)
	}
	dexit := tr.Enter("submit_bio_read")
	tr.ALU(420) // block layer, request setup, completion
	tr.Delay(dev)
	dexit()
	k.pageCache[keyObj] = frame
	return dev
}

// hugetlbFault serves a fault in a hugetlbfs VMA from the reserved pool.
func (k *Kernel) hugetlbFault(p *Process, va mem.VAddr, tr *instrument.Tracer) FaultOutcome {
	exit := tr.Enter("hugetlb_fault")
	defer exit()
	tr.ALU(150)
	frame, ok := popFrame(&k.hugetlbPool)
	if !ok {
		return k.segv(p)
	}
	zexit := tr.Enter("clear_huge_page")
	tr.ZeroRange(frame, mem.Page2M.Bytes())
	zexit()
	rp := residentPage{VA: mem.Page2M.PageBase(va), Size: mem.Page2M, Frame: frame, Heat: k.touchHeat(0)}
	out := k.installPage(p, rp.VA, rp, false, false, tr, func(s *Stats) { s.HugeTLBFaults++ })
	if !out.OK {
		return k.segv(p)
	}
	return out
}

// segv counts a SIGSEGV against p and returns the failed outcome.
func (k *Kernel) segv(p *Process) FaultOutcome {
	k.count(p, func(s *Stats) { s.SegvFaults++ })
	return FaultOutcome{OK: false}
}

// allocWithReclaim runs alloc, a frame allocation that reports whether
// it succeeded. When it fails and reclaim is set, physical memory is
// out: the kernel reclaims (demotion or swap) and retries once.
func (k *Kernel) allocWithReclaim(p *Process, tr *instrument.Tracer, now uint64, reclaim bool, alloc func() bool) bool {
	if alloc() {
		return true
	}
	if !reclaim {
		return false
	}
	k.reclaim(p, tr, now)
	return alloc()
}

// installPage maps rp under the page-table lock with a present,
// writable PTE at key, then accounts it. The outcome is not OK, and
// nothing is accounted, when the page table refuses the entry; the
// caller decides what becomes of the frame.
func (k *Kernel) installPage(p *Process, key mem.VAddr, rp residentPage, dirty, major bool, tr *instrument.Tracer, more func(*Stats)) FaultOutcome {
	tr.Atomic(k.lk.pt)
	if err := p.PT.Insert(key, pagetable.Entry{
		Frame: rp.Frame, Size: rp.Size, Present: true, Writable: true, Dirty: dirty, Accessed: true,
	}, tr); err != nil {
		return FaultOutcome{OK: false}
	}
	return k.account(p, rp, major, more)
}

// account charges a page a fault has just mapped: p's RSS and resident
// list, one minor or major fault of the page's size, and the handler's
// own counters (more, if non-nil).
func (k *Kernel) account(p *Process, rp residentPage, major bool, more func(*Stats)) FaultOutcome {
	p.RSS += rp.Size.Bytes()
	p.addResident(rp)
	k.count(p, func(s *Stats) {
		if major {
			s.MajorFaults++
		} else {
			s.MinorFaults++
		}
		s.FaultsBySize[rp.Size]++
		if more != nil {
			more(s)
		}
	})
	return FaultOutcome{OK: true, Frame: rp.Frame, Size: rp.Size, Major: major}
}

// postFault runs the deferred work attached to fault handling: reclaim
// when above the watermark, khugepaged scan ticks, zero-pool refill.
func (k *Kernel) postFault(p *Process, tr *instrument.Tracer, now uint64) {
	if k.tiersEnabled() {
		if k.Phys.UsedFraction() > k.Cfg.SwapThreshold {
			k.tierReclaim(p, tr, now)
		}
		if n := k.Cfg.TierScanEveryNFaults; n > 0 && k.faultCount%n == 0 {
			k.tierSample(p, tr)
		}
	} else if k.Cfg.SwapBytes > 0 && k.Phys.UsedFraction() > k.Cfg.SwapThreshold {
		k.directReclaim(p, tr, now)
	}
	if n := k.Cfg.KhugeEveryNFaults; n > 0 && k.faultCount%n == 0 {
		k.khuge.scan(tr)
	}
	k.refillZeroPool(tr)
	if k.Cfg.FullKernel {
		k.fullKernelNoise(tr, noiseFaultExit)
	}
}

// refillZeroPool zeroes up to the configured number of 2MB pages into
// the pool (background work charged to the current event, as the paper's
// single-channel injection does).
func (k *Kernel) refillZeroPool(tr *instrument.Tracer) {
	if k.Cfg.ZeroPoolCap == 0 {
		return
	}
	for i := 0; i < k.Cfg.ZeroPoolRefill && len(k.zeroPool) < k.Cfg.ZeroPoolCap; i++ {
		frame, ok := k.Phys.Alloc2M()
		if !ok {
			return
		}
		exit := tr.Enter("zero_pool_refill")
		tr.ZeroRange(frame, 2*mem.MB)
		exit()
		k.zeroPool = append(k.zeroPool, frame)
	}
}

// popFrame takes the last frame off a frame pool: the pre-zeroed 2MB
// pool or the hugetlbfs reserve.
func popFrame(pool *[]mem.PAddr) (mem.PAddr, bool) {
	n := len(*pool)
	if n == 0 {
		return 0, false
	}
	f := (*pool)[n-1]
	*pool = (*pool)[:n-1]
	return f, true
}

// ReserveHugeTLB fills the hugetlbfs pool with n 2MB pages (done at boot,
// like hugetlbfs reservation).
func (k *Kernel) ReserveHugeTLB(n int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	got := 0
	for i := 0; i < n; i++ {
		f, ok := k.Phys.Alloc2M()
		if !ok {
			break
		}
		k.hugetlbPool = append(k.hugetlbPool, f)
		got++
	}
	return got
}

// allocBuddy4K is the instrumented buddy fast path for a single frame.
func (k *Kernel) allocBuddy4K(tr *instrument.Tracer) (mem.PAddr, bool) {
	exit := tr.Enter("alloc_pages")
	defer exit()
	tr.Atomic(k.lk.buddy)
	tr.ALU(85) // gfp checks, zone selection, freelist pop
	tr.TouchObject(k.lk.buddy, 2, 1)
	return k.Phys.Alloc4K()
}
