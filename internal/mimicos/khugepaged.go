package mimicos

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// khugepaged imitates Linux's huge-page collapse daemon (Fig. 6's
// "KHugePage Scanning" box): regions that fell back to 4 KB pages are
// queued; periodic scans re-check the Fig. 6 eligibility conditions
// (swapped-out pages? write-protected? shared? young entries?) and
// collapse eligible regions by copying all 4 KB pages into a fresh 2MB
// frame — a ~100K-instruction stream that produces the THP-enabled
// outliers of Fig. 2.
type khugepaged struct {
	k      *Kernel
	queue  []khugeCand
	queued map[khugeKey]bool
	kaddr  mem.PAddr
}

type khugeKey struct {
	pid    int
	region uint64
}

type khugeCand struct {
	key      khugeKey
	vma      *VMA
	attempts int
}

// maxCollapseAttempts bounds rescans of a region that stays ineligible.
const maxCollapseAttempts = 64

func newKhugepaged(k *Kernel) *khugepaged {
	return &khugepaged{k: k, queued: make(map[khugeKey]bool), kaddr: k.kalloc(512)}
}

// noteCandidate registers a 2MB region whose huge allocation fell back.
func (kh *khugepaged) noteCandidate(pid int, vma *VMA, va mem.VAddr) {
	key := khugeKey{pid: pid, region: uint64(mem.Page2M.PageBase(va))}
	if kh.queued[key] {
		return
	}
	kh.queued[key] = true
	kh.queue = append(kh.queue, khugeCand{key: key, vma: vma})
}

// scan examines up to Cfg.KhugeScanRegions queued candidates and
// collapses the eligible ones. Work is charged to the current injected
// stream (the daemon contends with the faulting core), but — like the
// real khugepaged, which walks every mm on its scan list — candidates
// of *any* live process are examined, so one process's pages can be
// promoted while another is the one faulting. Collapse statistics are
// attributed to the process that owns the region, not the one whose
// fault drove the scan clock.
func (kh *khugepaged) scan(tr *instrument.Tracer) {
	k := kh.k
	n := k.Cfg.KhugeScanRegions
	if n == 0 || len(kh.queue) == 0 {
		return
	}
	exit := tr.Enter("khugepaged_scan")
	defer exit()
	tr.ALU(200)

	// Examine at most the candidates present when the scan starts, so a
	// re-enqueued region is not rescanned within the same pass.
	avail := len(kh.queue)
	if n > avail {
		n = avail
	}
	for i := 0; i < n && len(kh.queue) > 0; i++ {
		cand := kh.queue[0]
		kh.queue = kh.queue[1:]
		delete(kh.queued, cand.key)
		owner := k.procs[cand.key.pid]
		if owner == nil {
			continue // process exited; drop its candidate
		}
		if kh.tryCollapse(owner, cand, tr) {
			continue
		}
		// Transient failure (few pages yet, no 2MB block free): keep the
		// region on the scan list, as khugepaged does.
		cand.attempts++
		if cand.attempts < maxCollapseAttempts && !kh.queued[cand.key] {
			kh.queued[cand.key] = true
			kh.queue = append(kh.queue, cand)
		}
	}
}

// dropPID discards queued candidates of an exiting process.
func (kh *khugepaged) dropPID(pid int) {
	kept := kh.queue[:0]
	for _, cand := range kh.queue {
		if cand.key.pid == pid {
			delete(kh.queued, cand.key)
			continue
		}
		kept = append(kept, cand)
	}
	kh.queue = kept
}

// tryCollapse performs the Fig. 6 checks and the collapse copy; it
// reports whether the candidate is finished (collapsed or permanently
// ineligible).
func (kh *khugepaged) tryCollapse(p *Process, cand khugeCand, tr *instrument.Tracer) bool {
	k := kh.k
	regionBase := mem.VAddr(cand.key.region)
	vma := cand.vma

	exit := tr.Enter("collapse_huge_page")
	defer exit()

	// Scan the 512 PTEs of the region (Fig. 6: swapped-out pages?
	// write-protected? non-zero PTEs? shared? young?).
	present := 0
	var frames [512]mem.PAddr
	var mapped [512]bool
	for i := 0; i < 512; i++ {
		va := regionBase + mem.VAddr(i*4096)
		key := k.keyForNoCharge(p, va)
		if i%8 == 0 {
			tr.Load(k.lk.pt) // PTE cache line per 8 entries
			tr.ALU(12)
		}
		e, ok := p.PT.Lookup(key)
		if !ok {
			// A hole that is actually a demoted slow-tier page makes the
			// region ineligible: collapsing would zero-fill the hole and
			// leave the tier copy to be promoted over the huge mapping.
			if k.tiersEnabled() && k.tiers.Contains(p.PID, va) {
				k.count(p, func(s *Stats) { s.CollapseAborts++ })
				return true
			}
			continue
		}
		if e.Swapped || e.Size != mem.Page4K {
			k.count(p, func(s *Stats) { s.CollapseAborts++ })
			return true // permanently ineligible in this state
		}
		if e.Present {
			present++
			frames[i] = e.Frame
			mapped[i] = true
		}
	}
	// Linux collapses when holes are few (max_ptes_none default 511 is
	// permissive; we require at least 64 present pages to make the copy
	// worthwhile, mirroring common tuning).
	if present < 64 {
		k.count(p, func(s *Stats) { s.CollapseAborts++ })
		return false // too sparse for now; rescan later
	}

	tr.Atomic(k.lk.buddy)
	huge, ok := k.Phys.Alloc2M()
	if !ok {
		k.count(p, func(s *Stats) { s.CollapseAborts++ })
		return false // retry once contiguity reappears
	}

	// Copy present pages, zero the holes.
	for i := 0; i < 512; i++ {
		dst := huge + mem.PAddr(i*4096)
		if mapped[i] {
			tr.CopyRange(dst, frames[i], 4*mem.KB)
		} else {
			tr.ZeroRange(dst, 4*mem.KB)
		}
	}

	// Tear down the 4 KB PTEs and install the huge mapping.
	tr.Atomic(k.lk.pt)
	for i := 0; i < 512; i++ {
		if !mapped[i] {
			continue
		}
		va := regionBase + mem.VAddr(i*4096)
		key := k.keyForNoCharge(p, va)
		if _, ok := p.PT.Remove(key, tr); ok {
			k.Phys.Free(frames[i], 1)
			p.dropResident(va)
			p.RSS -= 4 * mem.KB
			k.notifyUnmap(p.PID, va, mem.Page4K)
		}
	}
	keyBase := k.keyForNoCharge(p, regionBase)
	if err := p.PT.Insert(keyBase, pagetable.Entry{
		Frame: huge, Size: mem.Page2M, Present: true, Writable: true, Accessed: true,
	}, tr); err != nil {
		k.Phys.Free(huge, 512)
		return true
	}
	vma.region4K[cand.key.region] = 0
	p.RSS += 2 * mem.MB
	p.addResident(residentPage{VA: regionBase, Size: mem.Page2M, Frame: huge, Heat: k.touchHeat(0)})
	tr.ALU(160) // mmu_notifier, deferred split queue, stats
	k.count(p, func(s *Stats) { s.Collapses++ })
	return true
}
