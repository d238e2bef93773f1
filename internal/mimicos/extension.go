package mimicos

import (
	"repro/internal/instrument"
	"repro/internal/mem"
)

// Exported kernel hooks for the public extension API (repro/ext).
// Custom allocation policies run inside the fault path like the
// built-ins, so they need the same instrumented helpers the built-ins
// use — exposed here with stable names instead of leaking the kernel's
// unexported internals.

// AllocBuddy4K is the instrumented buddy fast path for a single 4 KB
// frame: the allocation work (lock, freelist pop, gfp checks) is
// recorded into tr exactly as the built-in policies charge it.
func (k *Kernel) AllocBuddy4K(tr *instrument.Tracer) (mem.PAddr, bool) {
	return k.allocBuddy4K(tr)
}

// ZeroPoolPop returns a pre-zeroed 2 MB frame if one is ready (the
// "is there a zero 2MB page?" step of the THP fault flow).
func (k *Kernel) ZeroPoolPop() (mem.PAddr, bool) { return popFrame(&k.zeroPool) }

// NoteTHPCandidate registers the 2 MB region containing va as a
// khugepaged collapse candidate — what the built-in THP policy does
// when a huge allocation falls back to 4 KB.
func (k *Kernel) NoteTHPCandidate(pid int, vma *VMA, va mem.VAddr) {
	k.khuge.noteCandidate(pid, vma, va)
}

// BuddyLockPA returns the kernel address of the buddy-allocator lock,
// for policies that charge their own Atomic acquisitions.
func (k *Kernel) BuddyLockPA() mem.PAddr { return k.lk.buddy }

// PTLockPA returns the kernel address of the page-table lock.
func (k *Kernel) PTLockPA() mem.PAddr { return k.lk.pt }

// CoversRegion reports whether the whole 2 MB region containing va fits
// inside the VMA — the THP eligibility check.
func (v *VMA) CoversRegion(va mem.VAddr) bool { return v.coversRegion(va) }

// Mapped4KInRegion returns the number of resident 4 KB pages in the
// 2 MB region containing va — the occupancy state promotion decisions
// read.
func (v *VMA) Mapped4KInRegion(va mem.VAddr) int {
	return v.region4K[uint64(mem.Page2M.PageBase(va))]
}
