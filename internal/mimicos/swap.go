package mimicos

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// swapState models the swap file (Table 4: 4 GB) and the swap cache
// (§5.1 step 6): the kernel-resident index from swapped pages to their
// slots in the swap file.
type swapState struct {
	k        *Kernel
	slots    uint64
	used     uint64
	nextSlot uint64
	freed    []uint64
	kaddr    mem.PAddr
}

func newSwapState(k *Kernel, bytes uint64) *swapState {
	return &swapState{k: k, slots: bytes / (4 * mem.KB), kaddr: k.kalloc(4 * mem.KB)}
}

func (s *swapState) allocSlot() (uint64, bool) {
	if n := len(s.freed); n > 0 {
		slot := s.freed[n-1]
		s.freed = s.freed[:n-1]
		s.used++
		return slot, true
	}
	if s.nextSlot >= s.slots {
		return 0, false
	}
	slot := s.nextSlot
	s.nextSlot++
	s.used++
	return slot, true
}

func (s *swapState) freeSlot(slot uint64) {
	s.freed = append(s.freed, slot)
	s.used--
}

// swapOutPage writes the page at va to swap, updates its PTE to a
// swap entry, and releases the frame. fromRestSeg marks Utopia evictions
// (the frame returns to the RestSeg, not the buddy allocator).
func (k *Kernel) swapOutPage(p *Process, va mem.VAddr, size mem.PageSize, tr *instrument.Tracer, now uint64, fromRestSeg bool) bool {
	exit := tr.Enter("swap_out")
	defer exit()
	tr.Atomic(k.lk.swap)
	tr.ALU(240) // try_to_unmap, swap cache insert, writeback setup
	tr.TouchObject(k.swap.kaddr, 2, 1)

	key := k.keyForNoCharge(p, va)
	e, ok := p.PT.Lookup(key)
	if (!ok || !e.Present) && !fromRestSeg {
		return false
	}
	slot, sok := k.writeSwap(p, size, tr, now)
	if !sok {
		return false
	}

	// A mapped page's PTE becomes the swap entry. RestSeg pages have no
	// PTE, so one is inserted for the next fault to find the slot.
	swp := pagetable.Entry{Size: size, Swapped: true, SwapSlot: slot}
	if ok {
		p.PT.Update(key, swp, tr)
	} else if err := p.PT.Insert(key, swp, tr); err != nil {
		k.swap.freeSlot(slot)
		return false
	}
	p.noteSwapSlot(slot)
	k.notifyUnmap(p.PID, va, size)
	tr.ALU(60) // TLB shootdown IPI bookkeeping

	if idx, ok := p.residentIdx[va]; ok {
		rp := p.resident.at(idx)
		if !fromRestSeg && !rp.RestSeg {
			k.Phys.Free(rp.Frame, size.Bytes()/(4*mem.KB))
		}
		p.dropResident(va)
	}
	p.RSS -= size.Bytes()
	return true
}

// writeSwap takes a swap slot for a page of the given size and writes
// the page out: the device program time goes into the stream and is
// counted, with the swap-out, against p. It reports false when the swap
// file is full.
func (k *Kernel) writeSwap(p *Process, size mem.PageSize, tr *instrument.Tracer, now uint64) (uint64, bool) {
	slot, ok := k.swap.allocSlot()
	if !ok {
		return 0, false
	}
	var dev uint64 = 1_015_000 // stand-in program latency (~350 µs)
	if k.Disk != nil {
		dev = k.Disk.Write(slot*4096, size.Bytes(), now)
	}
	tr.Delay(dev)
	k.count(p, func(s *Stats) { s.SwapCycles += dev; s.SwapOuts++ })
	return slot, true
}

// swapInFault services a fault on a swapped PTE: read the slot from disk
// into a fresh frame and restore the mapping (§5.1 step 6).
func (k *Kernel) swapInFault(p *Process, va mem.VAddr, key mem.VAddr, e pagetable.Entry, tr *instrument.Tracer, now uint64) FaultOutcome {
	exit := tr.Enter("swap_in")
	defer exit()
	tr.Atomic(k.lk.swap)
	tr.ALU(260) // swap cache lookup, readahead setup
	tr.TouchObject(k.swap.kaddr, 2, 0)

	var frame mem.PAddr
	var size mem.PageSize
	var restseg bool
	// Reclaim is off here, so a swap-in that finds no free frame is a
	// SIGSEGV. Turning it on is ROADMAP item 9 step 3, a fix that
	// changes results.
	if !k.allocWithReclaim(p, tr, now, false, func() (ok bool) {
		frame, size, restseg, ok = k.swapInFrame(va, e.Size)
		return ok
	}) {
		return k.segv(p)
	}

	var dev uint64 = 174_000
	if k.Disk != nil {
		dev = k.Disk.Read(e.SwapSlot*4096, size.Bytes(), now)
	}
	tr.Delay(dev)
	k.count(p, func(s *Stats) { s.SwapCycles += dev })
	// Fill the frame from the bounce buffer.
	tr.CopyRange(frame, k.swap.kaddr, size.Bytes())

	base := size.PageBase(va)
	keyBase := key - (va - base)
	tr.Atomic(k.lk.pt)
	if restseg {
		// The mapping returns to the RestSeg; drop the swap PTE and any
		// negative SF/TAR state cached by the MMU.
		p.PT.Remove(keyBase, tr)
		k.notifyUnmap(p.PID, base, size)
	} else {
		p.PT.Update(keyBase, pagetable.Entry{
			Frame: frame, Size: size, Present: true, Writable: true, Accessed: true,
		}, tr)
	}
	k.swap.freeSlot(e.SwapSlot)
	p.dropSwapSlot(e.SwapSlot)
	out := k.account(p, residentPage{VA: base, Size: size, Frame: frame, RestSeg: restseg, Heat: k.touchHeat(0)},
		true, func(s *Stats) { s.SwapIns++ })
	out.DeviceCycles = dev
	return out
}

// swapInFrame allocates the frame a swapped page of the given size
// returns to: its RestSeg way under Utopia, else a buddy frame of the
// same size, else a 4K frame (the page comes back split).
func (k *Kernel) swapInFrame(va mem.VAddr, size mem.PageSize) (mem.PAddr, mem.PageSize, bool, bool) {
	if k.Utopia != nil {
		if seg := k.Utopia.SegFor(size); seg != nil {
			vpn := size.VPN(va)
			if way, aok := seg.Alloc(vpn); aok {
				return seg.FramePA(seg.SetOf(vpn), way), size, true, true
			}
		}
	}
	if size == mem.Page2M {
		if frame, ok := k.Phys.Alloc2M(); ok {
			return frame, size, false, true
		}
	}
	frame, ok := k.Phys.Alloc4K()
	return frame, mem.Page4K, false, ok
}

// directReclaim evicts a batch of resident pages when memory is above the
// watermark (Table 4: 90%), clock-scanning the resident list.
func (k *Kernel) directReclaim(p *Process, tr *instrument.Tracer, now uint64) {
	if k.Cfg.SwapBytes == 0 || p.resident.len() == 0 {
		return
	}
	exit := tr.Enter("direct_reclaim")
	defer exit()
	tr.Atomic(k.lk.lru)
	tr.ALU(420) // shrink_lruvec scan setup
	k.count(p, func(s *Stats) { s.ReclaimRuns++ })

	const batch = 16
	evicted := 0
	scanned := 0
	for evicted < batch && scanned < 4*p.resident.len() {
		rp := *p.resident.at(p.resident.tick(&p.clockHand))
		scanned++
		tr.Load(k.lk.lru)
		tr.ALU(18)
		if rp.RestSeg {
			// RestSeg residents are only displaced by set pressure.
			continue
		}
		if k.swapOutPage(p, rp.VA, rp.Size, tr, now, false) {
			evicted++
		}
		if k.Phys.UsedFraction() < k.Cfg.SwapThreshold-0.02 {
			break
		}
	}
}
