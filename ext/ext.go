// Package ext is the public extension surface of the Virtuoso
// reproduction: it lets an out-of-module consumer add a physical-memory
// allocation policy, an address-translation design, or a workload to
// the simulator — by name, in a few dozen lines, without touching
// internal packages (the §4.1 "ease of development" claim made into a
// stable API).
//
// Components register once, usually at init time, and are then usable
// everywhere a built-in is: virtuoso.Open(virtuoso.WithPolicy(...)),
// Sweep.Policies / Sweep.Designs / Sweep.Workloads grid axes,
// virtuoso.KnownPolicies / KnownDesigns, trace recording, and the
// cmd/virtuoso -policy / -design / -workload flags.
//
//	func init() {
//		ext.MustRegisterPolicy("bank-color", func() ext.AllocPolicy {
//			return &bankColorPolicy{colors: 8}
//		})
//	}
//	sess, _ := virtuoso.Open(virtuoso.WithPolicy("bank-color"), ...)
//
// The handle types (Kernel, Process, VMA, Tracer) are thin public
// wrappers over the corresponding MimicOS internals: they expose the
// same instrumented helpers the built-in components use, so a custom
// policy's kernel work is recorded and injected into the core model
// exactly like stock kernel code. See docs/extending.md for worked
// examples.
package ext

import (
	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/registry"
	"repro/internal/tier"
)

// Address and size vocabulary, re-exported so extension code never
// names an internal package.
type (
	// VAddr is a virtual address in the simulated address space.
	VAddr = mem.VAddr
	// PAddr is a physical address in the simulated memory.
	PAddr = mem.PAddr
	// PageSize selects a translation granule (Page4K, Page2M, Page1G).
	PageSize = mem.PageSize
)

// Size units and page sizes.
const (
	KB = mem.KB
	MB = mem.MB
	GB = mem.GB

	Page4K = mem.Page4K
	Page2M = mem.Page2M
	Page1G = mem.Page1G
)

// Tracer records the instruction stream of the kernel routine currently
// executing — the public handle over the §4.2 instrumentation layer.
// Everything a custom component records is injected into the simulated
// core and charged its real latency and cache/DRAM interference.
type Tracer struct{ t *instrument.Tracer }

// Enter marks entry into a named kernel routine and returns the
// matching exit function (defer it). Each routine gets its own
// synthetic code region, so custom kernel code exercises the I-cache
// realistically. The exit function must be called exactly once, in
// reverse order of the Enter calls: it closes the routine entered most
// recently.
func (tr Tracer) Enter(name string) func() { return tr.t.Enter(name) }

// ALU records n register-only instructions.
func (tr Tracer) ALU(n uint32) { tr.t.ALU(n) }

// Branch records n branches.
func (tr Tracer) Branch(n uint32) { tr.t.Branch(n) }

// Load records a kernel load at physical address pa.
func (tr Tracer) Load(pa PAddr) { tr.t.Load(pa) }

// Store records a kernel store at physical address pa.
func (tr Tracer) Store(pa PAddr) { tr.t.Store(pa) }

// Atomic records a locked read-modify-write at pa (spinlock
// acquisition, refcounts).
func (tr Tracer) Atomic(pa PAddr) { tr.t.Atomic(pa) }

// Delay records a pipeline stall of the given cycles (device time).
func (tr Tracer) Delay(cycles uint64) { tr.t.Delay(cycles) }

// ZeroRange records clearing [pa, pa+bytes) — the dominant cost of
// huge-page allocation — as one range record. The core executes it as
// one cache-line store per 64 B.
func (tr Tracer) ZeroRange(pa PAddr, bytes uint64) { tr.t.ZeroRange(pa, bytes) }

// CopyRange records copying bytes from src to dst as one range record
// (a pair: source, then destination). The core executes it as a load
// and a store per 64 B cache line.
func (tr Tracer) CopyRange(dst, src PAddr, bytes uint64) { tr.t.CopyRange(dst, src, bytes) }

// TouchObject records a read-modify access pattern over a kernel
// object: loads then stores cache lines starting at pa.
func (tr Tracer) TouchObject(pa PAddr, loads, stores int) { tr.t.TouchObject(pa, loads, stores) }

// Kernel is the public handle over a MimicOS instance a custom
// component operates on.
type Kernel struct{ k *mimicos.Kernel }

// Alloc4K takes one 4 KB frame straight from the buddy allocator
// (functional only — no kernel work charged; pair with Tracer calls).
func (k Kernel) Alloc4K() (PAddr, bool) { return k.k.Phys.Alloc4K() }

// Alloc2M takes one contiguous, aligned 2 MB block from the buddy
// allocator (functional only).
func (k Kernel) Alloc2M() (PAddr, bool) { return k.k.Phys.Alloc2M() }

// AllocBuddy4K is the instrumented buddy fast path: one 4 KB frame,
// with the allocation work (lock, freelist pop) recorded into tr the
// way the built-in policies charge it.
func (k Kernel) AllocBuddy4K(tr Tracer) (PAddr, bool) { return k.k.AllocBuddy4K(tr.t) }

// Free returns pages4K frames starting at pa to the buddy allocator.
func (k Kernel) Free(pa PAddr, pages4K uint64) { k.k.Phys.Free(pa, pages4K) }

// ZeroPoolPop returns a pre-zeroed 2 MB frame if the zero pool has one.
func (k Kernel) ZeroPoolPop() (PAddr, bool) { return k.k.ZeroPoolPop() }

// NoteTHPCandidate registers the 2 MB region containing va as a
// khugepaged collapse candidate for process p.
func (k Kernel) NoteTHPCandidate(p Process, v VMA, va VAddr) {
	k.k.NoteTHPCandidate(p.p.PID, v.v, va)
}

// FreeBytes returns the free physical memory in bytes.
func (k Kernel) FreeBytes() uint64 { return k.k.Phys.FreeBytes() }

// TotalBytes returns the physical memory size in bytes.
func (k Kernel) TotalBytes() uint64 { return k.k.Phys.TotalBytes() }

// Free2MBlocks returns the number of free, aligned 2 MB blocks — the
// fragmentation signal huge-page policies read.
func (k Kernel) Free2MBlocks() uint64 { return k.k.Phys.Free2MBlocks() }

// BuddyLock returns the kernel address of the buddy-allocator lock,
// for charging Atomic acquisitions.
func (k Kernel) BuddyLock() PAddr { return k.k.BuddyLockPA() }

// PTLock returns the kernel address of the page-table lock.
func (k Kernel) PTLock() PAddr { return k.k.PTLockPA() }

// Mmap creates a VMA of the given length in process pid's address
// space and returns its base — what a custom workload's Setup uses to
// lay out its address space.
func (k Kernel) Mmap(pid int, length uint64, flags MmapFlags) VAddr {
	return k.k.Mmap(pid, length, flags)
}

// MmapFlags selects the VMA type for Kernel.Mmap (anonymous,
// file-backed, hugetlbfs, ...).
type MmapFlags = mimicos.MmapFlags

// Process is the public handle over one simulated address space.
type Process struct{ p *mimicos.Process }

// PID returns the process identifier.
func (p Process) PID() int { return p.p.PID }

// ASID returns the address-space identifier TLB entries are tagged with.
func (p Process) ASID() uint16 { return p.p.ASID }

// RSS returns the resident set size in bytes.
func (p Process) RSS() uint64 { return p.p.RSS }

// VMA is the public handle over one virtual memory area.
type VMA struct{ v *mimicos.VMA }

// Start returns the VMA's first address.
func (v VMA) Start() VAddr { return v.v.Start }

// End returns the VMA's one-past-last address.
func (v VMA) End() VAddr { return v.v.End }

// Len returns the VMA length in bytes.
func (v VMA) Len() uint64 { return v.v.Len() }

// Contains reports whether va lies inside the VMA.
func (v VMA) Contains(va VAddr) bool { return v.v.Contains(va) }

// Anon reports whether the VMA is anonymous memory.
func (v VMA) Anon() bool { return v.v.Anon }

// CoversRegion reports whether the whole 2 MB region containing va fits
// inside the VMA — the THP eligibility check.
func (v VMA) CoversRegion(va VAddr) bool { return v.v.CoversRegion(va) }

// Mapped4KInRegion returns the number of resident 4 KB pages in the
// 2 MB region containing va (zero means the region is untouched — a
// huge mapping can go in without shattering anything).
func (v VMA) Mapped4KInRegion(va VAddr) int { return v.v.Mapped4KInRegion(va) }

// AllocDecision is a custom policy's answer to one anonymous fault.
// The zero value means allocation failure (the kernel then falls into
// reclaim, exactly as when the buddy allocator runs dry).
type AllocDecision struct {
	// Frame is the physical frame backing the page containing the
	// faulting address; Size is the granule chosen (the frame must be
	// Size-aligned and owned by the policy's allocation).
	Frame PAddr
	Size  PageSize
	// Prezeroed marks the frame as already zeroed, skipping the fault
	// path's zeroing work (e.g. frames from the zero pool).
	Prezeroed bool
	// RestSeg marks the frame as living in a Utopia RestSeg rather
	// than buddy-owned memory (release goes back to the segment).
	RestSeg bool
	// OK reports whether allocation succeeded.
	OK bool
}

// AllocPolicy is a custom physical-memory allocation policy — the
// public mirror of MimicOS's internal AllocPolicy interface (§7.5's
// policy axis). AllocAnon runs on every anonymous page fault; kernel
// work it records through tr is injected into the core model like any
// built-in policy's.
type AllocPolicy interface {
	// Name is the display name reported in Metrics.Policy (it need not
	// match the registered selection name).
	Name() string
	// AllocAnon picks the frame backing the page containing va.
	AllocAnon(k Kernel, p Process, vma VMA, va VAddr, tr Tracer, now uint64) AllocDecision
}

// policyAdapter lifts an ext.AllocPolicy into the internal interface.
type policyAdapter struct{ impl AllocPolicy }

func (a policyAdapter) Name() string { return a.impl.Name() }

func (a policyAdapter) AllocAnon(k *mimicos.Kernel, p *mimicos.Process, vma *mimicos.VMA, va mem.VAddr, tr *instrument.Tracer, now uint64) (mem.PAddr, mem.PageSize, bool, bool, bool) {
	d := a.impl.AllocAnon(Kernel{k}, Process{p}, VMA{vma}, va, Tracer{tr}, now)
	return d.Frame, d.Size, d.Prezeroed, d.RestSeg, d.OK
}

// RegisterPolicy registers a custom allocation policy under name. The
// constructor runs once per simulated system, so stateful policies
// never share state between concurrent sweep points. Registration
// fails on an empty, duplicate, or built-in-colliding name.
//
// After registration the policy is selectable by name everywhere a
// built-in policy is: WithPolicy, Sweep.Policies, ParsePolicy,
// KnownPolicies, and the -policy CLI flag.
func RegisterPolicy(name string, ctor func() AllocPolicy) error {
	if ctor == nil {
		return registry.RegisterPolicy(name, nil)
	}
	return registry.RegisterPolicy(name, func() mimicos.AllocPolicy {
		return policyAdapter{impl: ctor()}
	})
}

// MustRegisterPolicy is RegisterPolicy, panicking on error — for
// package init blocks.
func MustRegisterPolicy(name string, ctor func() AllocPolicy) {
	if err := RegisterPolicy(name, ctor); err != nil {
		panic(err)
	}
}

// TierPolicy is a custom page-migration policy for the tiered-memory
// subsystem — the public mirror of the internal tier.Policy interface.
// Methods are pure value transforms over a page's heat counter (the
// kernel's imitation of access-bit tracking): Touch runs on the faults
// that map or promote a page, Decay on the periodic access-bit sampling
// scans, Victim during tier eviction scans, and DemoteTo when a DRAM
// page is pushed down under memory pressure.
type TierPolicy interface {
	// Name is the display name reported in metrics.
	Name() string
	// Touch returns the new heat after a fault touched the page.
	Touch(heat uint32) uint32
	// Decay returns the new heat after a sampling scan found it idle.
	Decay(heat uint32) uint32
	// Victim reports whether a page of the given heat may be evicted on
	// this scan pass (pass 0 is selective; pass 1 is the desperate pass
	// and should almost always return true).
	Victim(heat uint32, pass int) bool
	// DemoteTo returns the slow-tier index (0 = fastest) a DRAM page of
	// the given heat demotes into, given slowTiers configured tiers.
	DemoteTo(slowTiers int, heat uint32) int
}

// tierPolicyAdapter lifts an ext.TierPolicy into the internal interface.
// The signatures match exactly, so it is a direct passthrough.
type tierPolicyAdapter struct{ impl TierPolicy }

func (a tierPolicyAdapter) Name() string                       { return a.impl.Name() }
func (a tierPolicyAdapter) Touch(heat uint32) uint32           { return a.impl.Touch(heat) }
func (a tierPolicyAdapter) Decay(heat uint32) uint32           { return a.impl.Decay(heat) }
func (a tierPolicyAdapter) Victim(heat uint32, pass int) bool  { return a.impl.Victim(heat, pass) }
func (a tierPolicyAdapter) DemoteTo(slow int, heat uint32) int { return a.impl.DemoteTo(slow, heat) }

// RegisterTierPolicy registers a custom tier migration policy under
// name. The constructor runs once per simulated system, so stateful
// policies never share state between concurrent sweep points.
// Registration fails on an empty, duplicate, or built-in-colliding
// name ("hotcold", "clock").
//
// After registration the policy is selectable by name everywhere a
// built-in tier policy is: WithTierPolicy, Sweep.TierPolicies,
// ParseTierPolicy, KnownTierPolicies, and the -tier-policy CLI flag.
func RegisterTierPolicy(name string, ctor func() TierPolicy) error {
	if ctor == nil {
		return registry.RegisterTierPolicy(name, nil)
	}
	return registry.RegisterTierPolicy(name, func() tier.Policy {
		return tierPolicyAdapter{impl: ctor()}
	})
}

// MustRegisterTierPolicy is RegisterTierPolicy, panicking on error —
// for package init blocks.
func MustRegisterTierPolicy(name string, ctor func() TierPolicy) {
	if err := RegisterTierPolicy(name, ctor); err != nil {
		panic(err)
	}
}

// TranslationResult is the outcome of one custom translation walk.
type TranslationResult struct {
	PA   PAddr
	Size PageSize
	// Lat is the walk latency in cycles — the design's latency model
	// (typically the sum of AccessPTE charges plus fixed lookup costs).
	Lat uint64
	// Fault reports that no valid mapping exists: the OS page-fault
	// path runs, then the access retries.
	Fault bool
}

// DesignEnv is what a custom translation design gets to work with. One
// instance is built per process (designs hold per-address-space state,
// switched like CR3 on context switches).
type DesignEnv struct{ env registry.DesignEnv }

// Lookup resolves va through the process's page table functionally —
// no memory traffic, no latency. Use it to find the mapping, then
// charge a latency model with AccessPTE.
func (e DesignEnv) Lookup(va VAddr) (pa PAddr, size PageSize, ok bool) {
	entry, ok := e.env.PT.Lookup(va)
	if !ok || !entry.Present {
		return 0, Page4K, false
	}
	return entry.Size.Translate(entry.Frame, va), entry.Size, true
}

// AccessPTE performs one page-table-entry access at physical address pa
// through the simulated cache hierarchy and DRAM, returning its latency
// in cycles — the building block of a walk-latency model. now is the
// current cycle (pass the walk's running timestamp so DRAM contention
// resolves realistically).
func (e DesignEnv) AccessPTE(pa PAddr, write bool, now uint64) uint64 {
	return e.env.Mem.AccessPTE(pa, write, now)
}

// AccessMeta performs one translation-metadata access (tag arrays,
// range tables, segment descriptors) at pa, returning its latency.
func (e DesignEnv) AccessMeta(pa PAddr, write bool, now uint64) uint64 {
	return e.env.Mem.AccessMeta(pa, write, now)
}

// WalkRadix delegates the access to the baseline four-level radix
// walker (with its page-walk caches) over the same page table — the
// fallback path hybrid designs use.
func (e DesignEnv) WalkRadix(va VAddr, now uint64) TranslationResult {
	r := e.env.Radix.TranslateMiss(va, now)
	return TranslationResult{PA: r.PA, Size: r.Size, Lat: r.Lat, Fault: r.Fault}
}

// ASID returns the address-space identifier of the process this design
// instance serves.
func (e DesignEnv) ASID() uint16 { return e.env.ASID }

// TranslationDesign is a custom address-translation scheme — the
// public mirror of the internal MMU design interface (§7.4's design
// axis). TranslateMiss is the per-access hook: it runs on every L2 STLB
// miss and returns where the page lives plus the cycles the hardware
// walk cost.
type TranslationDesign interface {
	// Name is the display name reported in Metrics.Design.
	Name() string
	// TranslateMiss resolves va after the TLB hierarchy missed.
	TranslateMiss(va VAddr, now uint64) TranslationResult
	// Invalidate drops design-internal cached state for a page when the
	// OS unmaps or remaps it (TLB shootdown). Stateless designs may
	// no-op.
	Invalidate(va VAddr, size PageSize)
}

// designAdapter lifts an ext.TranslationDesign into the internal MMU
// design interface.
type designAdapter struct{ impl TranslationDesign }

func (a designAdapter) Name() string { return a.impl.Name() }

func (a designAdapter) TranslateMiss(va mem.VAddr, now uint64) mmu.Result {
	r := a.impl.TranslateMiss(va, now)
	return mmu.Result{PA: r.PA, Size: r.Size, Lat: r.Lat, Fault: r.Fault}
}

func (a designAdapter) Invalidate(va mem.VAddr, size mem.PageSize) {
	a.impl.Invalidate(va, size)
}

// RegisterDesign registers a custom translation design under name. The
// constructor runs once per simulated process — every process owns its
// own design instance, switched on context switches like CR3 — and the
// kernel side keeps radix page tables, which the design reads through
// env.Lookup or delegates to with env.WalkRadix. Registration fails on
// an empty, duplicate, or built-in-colliding name.
//
// After registration the design is selectable by name everywhere a
// built-in design is: WithDesign, Sweep.Designs, ParseDesign,
// KnownDesigns, and the -design CLI flag.
func RegisterDesign(name string, ctor func(DesignEnv) TranslationDesign) error {
	if ctor == nil {
		return registry.RegisterDesign(name, nil)
	}
	return registry.RegisterDesign(name, func(env registry.DesignEnv) mmu.Design {
		return designAdapter{impl: ctor(DesignEnv{env})}
	})
}

// MustRegisterDesign is RegisterDesign, panicking on error.
func MustRegisterDesign(name string, ctor func(DesignEnv) TranslationDesign) {
	if err := RegisterDesign(name, ctor); err != nil {
		panic(err)
	}
}
