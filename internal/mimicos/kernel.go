// Package mimicos implements MimicOS (§5): a lightweight userspace kernel
// that imitates the memory-management subsystem of Linux for x86-64 —
// virtual memory areas, the full §5.1 page-fault flow (hugetlbfs, radix
// or hashed page tables, 1 GB / 2 MB / 4 KB allocation decisions, page
// cache, swap cache, disk), the slab and buddy allocators, khugepaged,
// and direct reclaim — while recording every routine's instruction
// stream through the instrumentation layer so the coupled architectural
// simulator can charge OS work its true latency and memory interference.
//
// MimicOS deliberately imitates only the VM-relevant kernel; a
// "full kernel" mode adds the unrelated routine streams a full-system
// simulator would execute, for the §7.3 overhead comparison.
package mimicos

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/midgard"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/recycle"
	"repro/internal/rmm"
	"repro/internal/ssd"
	"repro/internal/tier"
	"repro/internal/utopia"
	"repro/internal/xrand"
)

// PTKind selects the page-table design of the simulated kernel.
type PTKind string

// Page-table design names (Use Case 1, §7.4).
const (
	PTRadix PTKind = "radix"
	PTECH   PTKind = "ech"
	PTHDC   PTKind = "hdc"
	PTHT    PTKind = "ht"
)

// Config configures a MimicOS instance.
type Config struct {
	PhysBytes uint64 // physical memory size (Table 4: 256 GB)
	PTKind    PTKind

	// THP / allocation policy is set via Kernel.SetPolicy.

	ZeroPoolCap    int // pre-zeroed 2MB pages kept ready (0 disables)
	ZeroPoolRefill int // pages zeroed per background tick

	Enable1G         bool
	HugeTLB2MReserve int // hugetlbfs reserved 2MB pages

	SwapBytes     uint64  // swap space (Table 4: 4 GB)
	SwapThreshold float64 // reclaim watermark (Table 4: 90%)

	// Tiers configures slow memory tiers between DRAM and swap
	// (empty = classic flat DRAM + swap, byte-identical to the
	// pre-tiering model). TierPolicy selects the built-in migration
	// policy ("" = hotcold); out-of-module policies are installed by
	// the engine via SetTierPolicy after construction.
	// TierScanEveryNFaults is the access-bit sampling period on the
	// fault clock (0 with tiers configured = default 256).
	Tiers                []tier.Spec `json:"tiers,omitempty"`
	TierPolicy           string      `json:"tier_policy,omitempty"`
	TierScanEveryNFaults uint64      `json:"tier_scan_every_n_faults,omitempty"`

	KhugeEveryNFaults uint64 // khugepaged scan period (0 disables)
	KhugeScanRegions  int    // regions examined per scan

	PrepopulatePageCache bool // Fig. 1 methodology: no major faults at start

	FullKernel bool // imitate a full-blown kernel (gem5-FS comparison, §7.3)

	Seed uint64
}

// DefaultConfig returns the Table 4 MimicOS configuration.
func DefaultConfig() Config {
	return Config{
		PhysBytes: 4 * mem.GB,
		PTKind:    PTRadix,
		// Linux zeroes huge pages synchronously at fault time; the
		// optional zero pool (Fig. 6's "is there zero 2MB page?") is off
		// by default so THP faults show their real tail (Fig. 2).
		ZeroPoolCap:          0,
		ZeroPoolRefill:       0,
		Enable1G:             false,
		SwapBytes:            4 * mem.GB,
		SwapThreshold:        0.90,
		KhugeEveryNFaults:    512,
		KhugeScanRegions:     4,
		PrepopulatePageCache: true,
		Seed:                 1,
	}
}

// residentPage tracks one resident mapping for reclaim.
type residentPage struct {
	VA      mem.VAddr
	Size    mem.PageSize
	Frame   mem.PAddr
	RestSeg bool // frame belongs to a Utopia RestSeg (not buddy-owned)
	Dead    bool
	// Heat is the migration policy's hot/cold estimate, updated on the
	// faults that map the page and decayed by the access-bit sampling
	// scans. Unused (zero) when no slow tiers are configured.
	Heat uint32
}

// VMA is a virtual memory area (§5.1's find_vma target).
type VMA struct {
	Start, End mem.VAddr
	Anon       bool
	File       bool
	DAX        bool
	HugeTLB    bool
	Huge1G     bool // 1GB allocation flags set
	FileID     uint64
	KAddr      mem.PAddr // kernel object address (vm_area_struct)

	// region4K counts resident 4KB pages per 2MB-aligned region —
	// the state THP promotion decisions read.
	region4K map[uint64]int
	// reservations holds per-region reservation state (CR-THP/AR-THP).
	reservations map[uint64]*reservation
}

// Len returns the VMA length in bytes.
func (v *VMA) Len() uint64 { return uint64(v.End - v.Start) }

// Contains reports whether va is inside the VMA.
func (v *VMA) Contains(va mem.VAddr) bool { return va >= v.Start && va < v.End }

// coversRegion reports whether the whole 2MB region of va fits in the VMA.
func (v *VMA) coversRegion(va mem.VAddr) bool {
	base := mem.Page2M.PageBase(va)
	return base >= v.Start && base+mem.VAddr(2*mem.MB) <= v.End
}

type reservation struct {
	base     mem.PAddr
	touched  [8]uint64 // 512-bit map of allocated 4K offsets
	count    int
	upgraded bool
}

func (r *reservation) touch(idx int) bool {
	w, b := idx/64, uint(idx%64)
	if r.touched[w]&(1<<b) != 0 {
		return false
	}
	r.touched[w] |= 1 << b
	r.count++
	return true
}

// Process is one simulated address space.
type Process struct {
	PID  int
	ASID uint16
	VMAs []*VMA // sorted by Start
	PT   pagetable.PageTable

	// Design-specific auxiliary translation state.
	RMM     *rmm.Table     // eager-paging range table (RMM design)
	Midgard *midgard.Space // intermediate address space (Midgard design)

	// Stat accumulates this process's share of the kernel event counts.
	// Daemon work done on another process's fault clock (a khugepaged
	// collapse, a reclaim pass) is attributed to the process that owns
	// the affected pages, which is what makes per-process accounting in
	// multiprogrammed runs meaningful.
	Stat Stats

	RSS         uint64 // resident bytes
	resident    []residentPage
	residentIdx map[mem.VAddr]int
	clockHand   int
	sampleHand  int // access-bit sampling clock (tiered memory)
	nextMmap    mem.VAddr
	// swapSlots tracks the swap slots currently holding this process's
	// swapped-out pages, so exit can return them to the shared swap
	// file (they are otherwise only freed on swap-in).
	swapSlots map[uint64]struct{}
}

func (p *Process) noteSwapSlot(slot uint64) {
	if p.swapSlots == nil {
		p.swapSlots = make(map[uint64]struct{})
	}
	p.swapSlots[slot] = struct{}{}
}

func (p *Process) dropSwapSlot(slot uint64) { delete(p.swapSlots, slot) }

// locks holds the kernel lock addresses touched by instrumented atomics.
type locks struct {
	mmap  mem.PAddr
	pt    mem.PAddr
	buddy mem.PAddr
	lru   mem.PAddr
	swap  mem.PAddr
}

// Stats aggregates kernel-side event counts.
type Stats struct {
	MinorFaults  uint64
	MajorFaults  uint64
	SegvFaults   uint64
	FaultsBySize [mem.NumPageSizes]uint64

	THPPoolHits    uint64
	THPDirectZero  uint64
	THPFallback4K  uint64
	Reservations   uint64
	Upgrades       uint64
	Collapses      uint64
	CollapseAborts uint64

	HugeTLBFaults uint64
	OneGigFaults  uint64

	PageCacheHits   uint64
	PageCacheMisses uint64

	SwapIns     uint64
	SwapOuts    uint64
	SwapCycles  uint64 // device cycles spent on swap I/O
	ReclaimRuns uint64

	// Tiered-memory migration counts: promotions (slow tier → DRAM),
	// demotions (DRAM → slow tier; inter-tier cascades count against
	// the per-tier counters instead), and the device cycles charged for
	// tier migrations (the tier analogue of SwapCycles).
	Promotions      uint64
	Demotions       uint64
	MigrationCycles uint64

	MmapCalls   uint64
	MunmapCalls uint64
	Exits       uint64
}

// Kernel is one MimicOS instance.
type Kernel struct {
	Cfg    Config
	Phys   *phys.Mem
	Slab   *phys.Slab
	Disk   *ssd.Device
	Tracer *instrument.Tracer

	procs     map[int]*Process
	nextASID  uint16
	freeASIDs []uint16 // released by exited processes, recycled LIFO

	policy AllocPolicy

	zeroPool    []mem.PAddr
	hugetlbPool []mem.PAddr
	pageCache   map[pcKey]mem.PAddr
	swap        *swapState
	khuge       *khugepaged
	tiers       *tier.Manager
	tierKaddr   []mem.PAddr // per-tier kernel bounce buffers (migration copies)
	lk          locks
	rng         *xrand.Rand
	stats       Stats
	faultCount  uint64
	noiseTicks  uint64
	noiseObjs   []mem.PAddr
	unmapNotify func(pid int, va mem.VAddr, size mem.PageSize)
	exitNotify  func(pid int, asid uint16)

	// pool, when non-nil, recycles page-table arena chunks across
	// pooled kernel lifetimes (NewWith); construction-only, never
	// consulted on simulation paths.
	pool *recycle.Pool

	// Utopia is set when the utopia design is active; allocation and
	// eviction consult the RestSegs.
	Utopia *utopia.System

	mu sync.Mutex
}

type pcKey struct {
	file uint64
	page uint64
}

// New constructs a kernel with its own physical memory, slab, and swap
// state. disk may be nil (swap and page-cache misses then cost a fixed
// stand-in latency).
func New(cfg Config, disk *ssd.Device) *Kernel { return NewWith(cfg, disk, nil) }

// NewWith is New drawing the kernel's large allocations — the physical
// memory map and every page table built over the kernel's lifetime —
// from pool (nil pool = plain New).
func NewWith(cfg Config, disk *ssd.Device, pool *recycle.Pool) *Kernel {
	if cfg.PhysBytes == 0 {
		cfg.PhysBytes = DefaultConfig().PhysBytes
	}
	if cfg.SwapThreshold == 0 {
		cfg.SwapThreshold = 0.9
	}
	if cfg.PTKind == "" {
		cfg.PTKind = PTRadix
	}
	pm := phys.NewWith(cfg.PhysBytes, pool)
	k := &Kernel{
		Cfg:       cfg,
		Phys:      pm,
		Slab:      phys.NewSlab(pm),
		Disk:      disk,
		Tracer:    instrument.NewTracer(),
		procs:     make(map[int]*Process),
		pageCache: make(map[pcKey]mem.PAddr),
		rng:       xrand.New(cfg.Seed ^ 0x5eed),
		pool:      pool,
	}
	k.swap = newSwapState(k, cfg.SwapBytes)
	k.khuge = newKhugepaged(k)
	k.lk = locks{
		mmap:  k.kalloc(64),
		pt:    k.kalloc(64),
		buddy: k.kalloc(64),
		lru:   k.kalloc(64),
		swap:  k.kalloc(64),
	}
	// Slow tiers thread between DRAM and swap. The flat configuration
	// takes none of these allocations, so tier-less kernels keep the
	// exact slab layout (and therefore byte-identical traces) of the
	// pre-tiering model.
	if len(cfg.Tiers) > 0 {
		pol, _ := tier.NewBuiltin(cfg.TierPolicy) // nil for registry names; engine installs
		k.tiers = tier.NewManager(cfg.Tiers, pol)
		k.tierKaddr = make([]mem.PAddr, len(cfg.Tiers))
		for i := range cfg.Tiers {
			k.tierKaddr[i] = k.kalloc(4 * mem.KB)
		}
		if k.Cfg.TierScanEveryNFaults == 0 {
			k.Cfg.TierScanEveryNFaults = 256
		}
	}
	k.policy = &BuddyPolicy{}
	return k
}

// Recycle harvests the kernel's large allocations — the phys map and
// the page tables of still-live processes — into pool. The kernel must
// not be used afterwards.
func (k *Kernel) Recycle(pool *recycle.Pool) {
	if pool == nil {
		return
	}
	for _, p := range k.procs {
		if r, ok := p.PT.(recycle.Recycler); ok {
			r.Recycle(pool)
		}
	}
	k.procs = nil
	k.Phys.Recycle(pool)
}

// kalloc allocates a kernel object, panicking on OOM (init-time only).
func (k *Kernel) kalloc(size uint64) mem.PAddr {
	pa, ok := k.Slab.AllocObject(size)
	if !ok {
		panic("mimicos: kernel heap exhausted")
	}
	return pa
}

// SetPolicy installs the physical memory allocation policy.
func (k *Kernel) SetPolicy(p AllocPolicy) { k.policy = p }

// Policy returns the active allocation policy.
func (k *Kernel) Policy() AllocPolicy { return k.policy }

// SetUnmapNotifier installs the engine callback used to shoot down TLB
// entries when the kernel unmaps or remaps pages.
func (k *Kernel) SetUnmapNotifier(f func(pid int, va mem.VAddr, size mem.PageSize)) {
	k.unmapNotify = f
}

// SetExitNotifier installs the engine callback invoked after a process
// exits, before its ASID becomes recyclable — the hook the engine uses
// to issue the ASID-wide TLB flush.
func (k *Kernel) SetExitNotifier(f func(pid int, asid uint16)) {
	k.exitNotify = f
}

func (k *Kernel) notifyUnmap(pid int, va mem.VAddr, size mem.PageSize) {
	if k.unmapNotify != nil {
		k.unmapNotify(pid, va, size)
	}
}

// Stats returns the kernel statistics.
func (k *Kernel) Stats() *Stats { return &k.stats }

// Process returns the process with the given PID, or nil.
func (k *Kernel) Process(pid int) *Process { return k.procs[pid] }

// newPageTable builds the configured page-table design.
func (k *Kernel) newPageTable() pagetable.PageTable {
	switch k.Cfg.PTKind {
	case PTRadix:
		return pagetable.NewRadixWith(k.Slab, k.pool)
	case PTECH:
		return pagetable.NewECH(k.Slab)
	case PTHDC:
		return pagetable.NewHDC(k.Slab, tableBytesFor(k.Cfg.PhysBytes))
	case PTHT:
		return pagetable.NewHT(k.Slab, tableBytesFor(k.Cfg.PhysBytes))
	default:
		panic(fmt.Sprintf("mimicos: unknown page table kind %q", k.Cfg.PTKind))
	}
}

// tableBytesFor scales the global hash-table size with physical memory
// (the paper's 4 GB table serves 256 GB of DRAM; smaller simulated
// memories get proportionally smaller tables, with a floor).
func tableBytesFor(physBytes uint64) uint64 {
	t := physBytes / 64
	if t < 16*mem.MB {
		t = 16 * mem.MB
	}
	if t > 4*mem.GB {
		t = 4 * mem.GB
	}
	return t
}

// CreateProcess registers a new address space. ASIDs released by exited
// processes are recycled before the counter grows — real kernels do the
// same (the ASID space is 12-16 bits), which is why exit must flush the
// TLB hierarchy ASID-wide (see ExitProcess).
func (k *Kernel) CreateProcess(pid int) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.procs[pid]; dup {
		panic(fmt.Sprintf("mimicos: duplicate pid %d", pid))
	}
	var asid uint16
	if n := len(k.freeASIDs); n > 0 {
		asid = k.freeASIDs[n-1]
		k.freeASIDs = k.freeASIDs[:n-1]
	} else {
		k.nextASID++
		asid = k.nextASID
	}
	p := &Process{
		PID:         pid,
		ASID:        asid,
		PT:          k.newPageTable(),
		residentIdx: make(map[mem.VAddr]int),
		nextMmap:    0x0000_1000_0000_0000,
	}
	k.procs[pid] = p
	return p
}

// ExitProcess tears down a process: every resident page is unmapped
// (releasing frames and notifying per-page shootdowns), swap slots
// still holding its swapped-out pages are returned to the shared swap
// file, the process is reaped from the table, and its ASID is released
// for recycling. The exit notifier fires before the ASID becomes
// reusable so the engine can flush the TLB hierarchy ASID-wide —
// without that flush a recycled ASID would hit the dead process's
// stale translations.
func (k *Kernel) ExitProcess(pid int) {
	k.mu.Lock()
	p := k.procs[pid]
	if p == nil {
		k.mu.Unlock()
		return
	}
	tr := k.Tracer
	exit := tr.Enter("do_exit")
	tr.Atomic(k.lk.mmap)
	tr.ALU(420) // exit_mm, mm counter teardown, task reaping
	// One pass over the resident list: at exit every VMA dies, so the
	// per-VMA filtering Munmap's teardownVMA does would rescan the list
	// once per VMA for nothing. No per-page unmap notifications either:
	// the exit notifier's ASID-wide flush covers the TLBs in one sweep,
	// and the per-process design state dies with the process.
	for i := range p.resident {
		rp := &p.resident[i]
		if rp.Dead {
			continue
		}
		if e, ok := p.PT.Remove(k.keyForNoCharge(p, rp.VA), tr); ok && e.Present {
			k.releaseFrame(rp, tr)
			p.RSS -= rp.Size.Bytes()
		}
		delete(p.residentIdx, rp.VA)
		rp.Dead = true
	}
	p.VMAs = nil
	// Free the swap slots of pages that stayed swapped out (sorted so
	// the shared free list — and therefore later slot reuse — is
	// deterministic regardless of map iteration order).
	if len(p.swapSlots) > 0 {
		slots := make([]uint64, 0, len(p.swapSlots))
		for slot := range p.swapSlots {
			slots = append(slots, slot)
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		for _, slot := range slots {
			k.swap.freeSlot(slot)
		}
		p.swapSlots = nil
		tr.Atomic(k.lk.swap)
		tr.ALU(uint32(40 * len(slots))) // swap_entry_free per slot
	}
	// Drop the slow-tier records of pages that died unmapped in a tier
	// (exit's analogue of freeing swap slots).
	if k.tiersEnabled() {
		if n := k.tiers.RemovePID(pid); n > 0 {
			tr.Atomic(k.lk.lru)
			tr.ALU(uint32(30 * n)) // tier descriptor free per page
		}
	}
	k.khuge.dropPID(pid)
	// Pooled kernels harvest the dead process's page-table arenas now
	// (scrubbed in Recycle), so its chunks seed the next process's
	// table instead of becoming garbage.
	if k.pool != nil {
		if r, ok := p.PT.(recycle.Recycler); ok {
			r.Recycle(k.pool)
		}
		p.PT = nil
	}
	delete(k.procs, pid)
	k.freeASIDs = append(k.freeASIDs, p.ASID)
	k.stats.Exits++
	p.Stat.Exits++
	exit()
	notify := k.exitNotify
	k.mu.Unlock()
	if notify != nil {
		notify(pid, p.ASID)
	}
}

// EnableRMM attaches an eager-paging range table to the process.
func (k *Kernel) EnableRMM(p *Process) {
	p.RMM = rmm.NewTable(k.kalloc(64 * mem.KB))
}

// EnableMidgard attaches a Midgard intermediate address space.
func (k *Kernel) EnableMidgard(p *Process) {
	p.Midgard = midgard.NewSpace(k.kalloc(64 * mem.KB))
}

// MmapFlags selects the VMA type for Mmap.
type MmapFlags struct {
	Anon    bool
	File    bool
	DAX     bool
	HugeTLB bool
	Huge1G  bool
	FileID  uint64
	// FixedAddr, when non-zero, places the VMA at the given address.
	FixedAddr mem.VAddr
}

// Mmap creates a VMA of the given length and returns its base address.
// The mmap syscall's kernel work is recorded into the tracer (callers
// obtain the stream via TakeStream when charging syscall overhead).
func (k *Kernel) Mmap(pid int, length uint64, flags MmapFlags) mem.VAddr {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.procs[pid]
	tr := k.Tracer
	exit := tr.Enter("sys_mmap")
	tr.Atomic(k.lk.mmap)
	tr.ALU(260)

	length = mem.AlignUp(length, 4*mem.KB)
	base := flags.FixedAddr
	if base == 0 {
		base = p.nextMmap
		p.nextMmap += mem.VAddr(mem.AlignUp(length, 2*mem.MB)) + 2*mem.MB // guard gap
	}
	v := &VMA{
		Start: base, End: base + mem.VAddr(length),
		Anon: flags.Anon, File: flags.File, DAX: flags.DAX,
		HugeTLB: flags.HugeTLB, Huge1G: flags.Huge1G,
		FileID:       flags.FileID,
		KAddr:        k.kalloc(256),
		region4K:     make(map[uint64]int),
		reservations: make(map[uint64]*reservation),
	}
	i := sort.Search(len(p.VMAs), func(i int) bool { return p.VMAs[i].Start >= v.Start })
	p.VMAs = append(p.VMAs, nil)
	copy(p.VMAs[i+1:], p.VMAs[i:])
	p.VMAs[i] = v
	tr.TouchObject(v.KAddr, 1, 2)
	k.stats.MmapCalls++
	p.Stat.MmapCalls++

	if p.Midgard != nil {
		p.Midgard.AddVMA(v.Start, v.End, tr)
	}
	if ep, ok := k.policy.(*EagerPolicy); ok && flags.Anon {
		ep.reserveRanges(k, p, v, tr)
	}
	tr.ALU(90)
	exit()
	return base
}

// Munmap removes all VMAs overlapping [va, va+length), freeing frames.
func (k *Kernel) Munmap(pid int, va mem.VAddr, length uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.procs[pid]
	tr := k.Tracer
	exit := tr.Enter("sys_munmap")
	tr.Atomic(k.lk.mmap)
	tr.ALU(220)
	end := va + mem.VAddr(mem.AlignUp(length, 4*mem.KB))

	kept := p.VMAs[:0]
	for _, v := range p.VMAs {
		if v.Start < end && va < v.End {
			k.teardownVMA(p, v, tr)
			continue
		}
		kept = append(kept, v)
	}
	p.VMAs = kept
	if p.Midgard != nil {
		p.Midgard.RemoveVMA(va, end, tr)
	}
	if p.RMM != nil {
		p.RMM.Remove(va, end, tr)
	}
	k.stats.MunmapCalls++
	p.Stat.MunmapCalls++
	exit()
}

// teardownVMA unmaps every resident page of v. The page table is keyed
// by the translation key (the Midgard intermediate address when an
// intermediate address space is active), not the virtual address.
func (k *Kernel) teardownVMA(p *Process, v *VMA, tr *instrument.Tracer) {
	for i := range p.resident {
		rp := &p.resident[i]
		if rp.Dead || !v.Contains(rp.VA) {
			continue
		}
		if e, ok := p.PT.Remove(k.keyForNoCharge(p, rp.VA), tr); ok && e.Present {
			k.releaseFrame(rp, tr)
			p.RSS -= rp.Size.Bytes()
			k.notifyUnmap(p.PID, rp.VA, rp.Size)
		}
		delete(p.residentIdx, rp.VA)
		rp.Dead = true
	}
	if k.tiersEnabled() {
		if n := k.tiers.RemoveRange(p.PID, v.Start, v.End); n > 0 {
			tr.Atomic(k.lk.lru)
			tr.ALU(uint32(30 * n)) // tier descriptor free per page
		}
	}
}

// releaseFrame returns a frame to its owner (buddy or RestSeg).
func (k *Kernel) releaseFrame(rp *residentPage, tr *instrument.Tracer) {
	if rp.RestSeg {
		if seg := k.Utopia.SegFor(rp.Size); seg != nil {
			vpn := rp.Size.VPN(rp.VA)
			seg.Release(vpn)
			tr.Store(seg.TagPA(seg.SetOf(vpn), 0))
		}
		return
	}
	k.Phys.Free(rp.Frame, rp.Size.Bytes()/(4*mem.KB))
	tr.ALU(30)
}

// findVMA walks the process VMA tree, charging one kernel load per
// visited node (the maple-tree descent of find_vma).
func (k *Kernel) findVMA(p *Process, va mem.VAddr, tr *instrument.Tracer) *VMA {
	exit := tr.Enter("find_vma")
	defer exit()
	lo, hi := 0, len(p.VMAs)
	for lo < hi {
		mid := (lo + hi) / 2
		tr.Load(p.VMAs[mid].KAddr)
		tr.ALU(6)
		if p.VMAs[mid].End <= va {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.VMAs) && p.VMAs[lo].Contains(va) {
		tr.Load(p.VMAs[lo].KAddr)
		return p.VMAs[lo]
	}
	return nil
}

// VMAOf returns the VMA containing va without charging kernel work.
func (k *Kernel) VMAOf(pid int, va mem.VAddr) *VMA {
	p := k.procs[pid]
	if p == nil {
		return nil
	}
	i := sort.Search(len(p.VMAs), func(i int) bool { return p.VMAs[i].End > va })
	if i < len(p.VMAs) && p.VMAs[i].Contains(va) {
		return p.VMAs[i]
	}
	return nil
}

// addResident records a resident mapping for reclaim bookkeeping.
func (p *Process) addResident(rp residentPage) {
	if idx, ok := p.residentIdx[rp.VA]; ok {
		p.resident[idx] = rp
		return
	}
	p.residentIdx[rp.VA] = len(p.resident)
	p.resident = append(p.resident, rp)
}

func (p *Process) dropResident(va mem.VAddr) {
	if idx, ok := p.residentIdx[va]; ok {
		p.resident[idx].Dead = true
		delete(p.residentIdx, va)
	}
}

// TakeStream returns the instruction stream recorded by the last kernel
// operation (valid until the next operation).
func (k *Kernel) TakeStream() isa.Stream { return k.Tracer.Take() }
