// Package mmu models the memory management unit: the TLB hierarchy of
// Table 4 (split L1 DTLBs per page size, unified L2 STLB, page-walk
// caches) in front of a pluggable translation design — radix or hashed
// page-table walkers, Utopia, RMM ranges, Midgard's intermediate address
// space, direct segments, and nested (virtualised) translation.
//
// Walk memory traffic goes through the shared cache hierarchy and DRAM
// with the mem.ATPTE / mem.ATTransMeta attribution the row-buffer
// experiments (Figs. 14, 21) rely on.
package mmu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/tlb"
)

// Memory is the walker-facing view of the cache hierarchy.
type Memory interface {
	AccessPTE(pa mem.PAddr, write bool, now uint64) uint64
	AccessMeta(pa mem.PAddr, write bool, now uint64) uint64
}

// Result is the outcome of one translation.
type Result struct {
	PA    mem.PAddr
	Size  mem.PageSize
	Lat   uint64 // cycles spent translating (TLB lookups + walk)
	Fault bool   // no valid mapping: the OS must intervene
	// FrontendLat/BackendLat split translation time for intermediate
	// address space designs (Fig. 17); zero elsewhere.
	FrontendLat uint64
	BackendLat  uint64
}

// Design is a translation mechanism invoked after an L2 STLB miss.
type Design interface {
	// TranslateMiss resolves va after the TLB hierarchy missed.
	TranslateMiss(va mem.VAddr, now uint64) Result
	// Invalidate drops design-internal state for a page (shootdowns).
	Invalidate(va mem.VAddr, size mem.PageSize)
}

// Config sizes the TLB hierarchy (Table 4 defaults via DefaultConfig).
type Config struct {
	ITLBEntries, ITLBWays     int
	ITLBLat                   uint64
	DTLB4KEntries, DTLB4KWays int
	DTLB2MEntries, DTLB2MWays int
	DTLBLat                   uint64
	STLBEntries, STLBWays     int
	STLBLat                   uint64
	// STLB4KOnly restricts the unified L2 TLB to 4 KB entries
	// (Sandy-Bridge-style); large pages then rely on the L1 alone.
	// Scaled-down experiment configurations use this to preserve the
	// paper's footprint-to-TLB-reach ratio for huge pages.
	STLB4KOnly bool
	// PWCEntries/PWCWays size the page-walk caches (0 = Table 4's 32/4,
	// see PWC).
	PWCEntries, PWCWays int
}

// DefaultConfig returns the Table 4 MMU configuration: 128-entry 8-way
// L1 I-TLB; 64-entry 4-way L1 D-TLB (4K); 32-entry 4-way L1 D-TLB (2M);
// 2048-entry 16-way L2 STLB at 12 cycles.
func DefaultConfig() Config {
	return Config{
		ITLBEntries: 128, ITLBWays: 8, ITLBLat: 1,
		DTLB4KEntries: 64, DTLB4KWays: 4,
		DTLB2MEntries: 32, DTLB2MWays: 4,
		DTLBLat:     1,
		STLBEntries: 2048, STLBWays: 16, STLBLat: 12,
	}
}

// withDefaults applies the zero-means-default rule New builds by: a
// zero ITLBEntries selects DefaultConfig's whole TLB hierarchy.
func (c Config) withDefaults() Config {
	if c.ITLBEntries == 0 {
		return DefaultConfig()
	}
	return c
}

// PWC returns the page-walk-cache geometry: PWCEntries and PWCWays, or
// Table 4's 32 entries, 4 ways when PWCEntries is zero.
func (c Config) PWC() (entries, ways int) {
	if c.PWCEntries == 0 {
		return 32, 4
	}
	return c.PWCEntries, c.PWCWays
}

// Validate reports a TLB or page-walk-cache geometry that cannot be
// built, so a bad configuration fails as an error before any system
// exists instead of panicking (or dividing by zero) in a constructor.
// Each TLB of the configuration New builds, and the PWC pair, needs
// entries > 0, ways > 0 and entries divisible by ways.
func (c Config) Validate() error {
	t := c.withDefaults()
	pwcEntries, pwcWays := c.PWC()
	for _, g := range [...]struct {
		name          string
		entries, ways int
	}{
		{"L1I-TLB", t.ITLBEntries, t.ITLBWays},
		{"L1D-TLB-4K", t.DTLB4KEntries, t.DTLB4KWays},
		{"L1D-TLB-2M", t.DTLB2MEntries, t.DTLB2MWays},
		{"L2-STLB", t.STLBEntries, t.STLBWays},
		{"PWC", pwcEntries, pwcWays},
	} {
		if g.entries <= 0 || g.ways <= 0 || g.entries%g.ways != 0 {
			return fmt.Errorf("mmu: %s: %d entries with %d ways: need entries > 0 and ways > 0, entries divisible by ways",
				g.name, g.entries, g.ways)
		}
	}
	return nil
}

// Stats aggregates MMU activity.
type Stats struct {
	DataTranslations  uint64
	InstrTranslations uint64
	L1DTLBMisses      uint64
	L2TLBMisses       uint64 // drives the L2 TLB MPKI of Fig. 10
	Walks             uint64
	WalkCycles        uint64 // total page-table-walk latency
	Faults            uint64
	TransCycles       uint64 // total translation cycles beyond the L1 hit path
	FrontendCycles    uint64 // Midgard frontend share (Fig. 17)
	BackendCycles     uint64
	ContextFlushes    uint64 // whole-hierarchy flushes by SwitchContext
}

// AvgWalkLatency returns average PTW latency in cycles (Figs. 3, 10).
func (s *Stats) AvgWalkLatency() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.WalkCycles) / float64(s.Walks)
}

// MMU couples the TLB hierarchy with a translation design.
type MMU struct {
	cfg    Config
	itlb   *tlb.TLB
	dtlb4k *tlb.TLB
	dtlb2m *tlb.TLB
	stlb   *tlb.TLB
	design Design
	// radix caches the installed design's concrete type when it is the
	// common radix walker, so the STLB-miss path calls it directly
	// (devirtualized, inlinable) instead of through the Design
	// interface. Nil for every other design, which stays on the
	// interface slow path.
	radix *RadixWalker
	asid  uint16
	stats Stats
}

// New builds an MMU over the given design.
func New(cfg Config, design Design, asid uint16) *MMU {
	cfg = cfg.withDefaults()
	stlbSizes := []mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G}
	if cfg.STLB4KOnly {
		stlbSizes = []mem.PageSize{mem.Page4K}
	}
	m := &MMU{
		cfg:    cfg,
		itlb:   tlb.New("L1I-TLB", cfg.ITLBEntries, cfg.ITLBWays, cfg.ITLBLat, mem.Page4K, mem.Page2M),
		dtlb4k: tlb.New("L1D-TLB-4K", cfg.DTLB4KEntries, cfg.DTLB4KWays, cfg.DTLBLat, mem.Page4K),
		dtlb2m: tlb.New("L1D-TLB-2M", cfg.DTLB2MEntries, cfg.DTLB2MWays, cfg.DTLBLat, mem.Page2M, mem.Page1G),
		stlb:   tlb.New("L2-STLB", cfg.STLBEntries, cfg.STLBWays, cfg.STLBLat, stlbSizes...),
		asid:   asid,
	}
	m.setDesign(design)
	return m
}

// setDesign installs d and refreshes the devirtualized fast-path
// pointer used on STLB misses.
func (m *MMU) setDesign(d Design) {
	m.design = d
	m.radix, _ = d.(*RadixWalker)
}

// translateMiss resolves an STLB miss through the cached concrete
// walker when the design is the radix walker, falling back to the
// Design interface for every other (or externally registered) design.
func (m *MMU) translateMiss(va mem.VAddr, now uint64) Result {
	if m.radix != nil {
		return m.radix.TranslateMiss(va, now)
	}
	return m.design.TranslateMiss(va, now)
}

// SwitchContext installs the address-space context of the process being
// scheduled onto the core: the ASID that tags TLB lookups and the
// process's translation design (its page-table root, walk caches, and
// design-specific state — the CR3 write of a real context switch). With
// flush set the whole TLB hierarchy is invalidated, modelling untagged
// TLBs; without it entries persist across the switch and isolation
// relies on the ASID tags, so a process resuming its quantum can re-hit
// translations it installed earlier.
func (m *MMU) SwitchContext(asid uint16, d Design, flush bool) {
	m.asid = asid
	if d != nil {
		m.setDesign(d)
	}
	if flush {
		m.FlushAll()
		m.stats.ContextFlushes++
	}
}

// FlushASID drops every TLB entry tagged with asid from the whole
// hierarchy — the ASID-wide shootdown of process exit. Without it a
// recycled ASID could hit the dead process's stale translations.
// Design-internal state needs no flushing here: designs are
// per-process and die with their process.
func (m *MMU) FlushASID(asid uint16) {
	m.itlb.InvalidateASID(asid)
	m.dtlb4k.InvalidateASID(asid)
	m.dtlb2m.InvalidateASID(asid)
	m.stlb.InvalidateASID(asid)
}

// InvalidateASIDVA performs a TLB shootdown of one page for an explicit
// ASID — the multiprogrammed form of Invalidate, used when a kernel
// daemon (khugepaged, reclaim) unmaps pages of a process that is not
// the one currently running. Design-level invalidation is the caller's
// responsibility: the page's owner holds its own design.
func (m *MMU) InvalidateASIDVA(asid uint16, va mem.VAddr, size mem.PageSize) {
	m.itlb.InvalidateVA(va, asid)
	m.dtlb4k.InvalidateVA(va, asid)
	m.dtlb2m.InvalidateVA(va, asid)
	m.stlb.InvalidateVA(va, asid)
}

// Stats returns the accumulated statistics.
func (m *MMU) Stats() *Stats { return &m.stats }

// STLB exposes the L2 TLB (hit-rate reporting).
func (m *MMU) STLB() *tlb.TLB { return m.stlb }

// Translate resolves a data access at va. On Result.Fault the caller
// must invoke the OS and retry.
func (m *MMU) Translate(va mem.VAddr, write bool, now uint64) Result {
	m.stats.DataTranslations++
	// L1: both split DTLBs probe in parallel; one cycle.
	if e, ok := m.dtlb4k.Lookup(va, m.asid); ok {
		return Result{PA: e.Size.Translate(e.Frame, va), Size: e.Size, Lat: m.cfg.DTLBLat}
	}
	if e, ok := m.dtlb2m.Lookup(va, m.asid); ok {
		return Result{PA: e.Size.Translate(e.Frame, va), Size: e.Size, Lat: m.cfg.DTLBLat}
	}
	m.stats.L1DTLBMisses++
	lat := m.cfg.DTLBLat + m.cfg.STLBLat
	if e, ok := m.stlb.Lookup(va, m.asid); ok {
		m.fillL1(e)
		m.stats.TransCycles += lat
		return Result{PA: e.Size.Translate(e.Frame, va), Size: e.Size, Lat: lat}
	}
	m.stats.L2TLBMisses++

	res := m.translateMiss(va, now+lat)
	m.stats.Walks++
	m.stats.WalkCycles += res.Lat
	m.stats.FrontendCycles += res.FrontendLat
	m.stats.BackendCycles += res.BackendLat
	lat += res.Lat
	m.stats.TransCycles += lat
	if res.Fault {
		m.stats.Faults++
		return Result{Lat: lat, Fault: true}
	}
	e := tlb.Entry{VPN: res.Size.VPN(va), Size: res.Size, Frame: res.Size.FrameBase(res.PA), ASID: m.asid}
	m.stlb.Insert(e)
	m.fillL1(e)
	return Result{PA: res.Size.Translate(res.PA, va), Size: res.Size, Lat: lat}
}

// TranslateInstr resolves an instruction fetch at va.
func (m *MMU) TranslateInstr(va mem.VAddr, now uint64) Result {
	m.stats.InstrTranslations++
	if e, ok := m.itlb.Lookup(va, m.asid); ok {
		return Result{PA: e.Size.Translate(e.Frame, va), Size: e.Size, Lat: m.cfg.ITLBLat}
	}
	lat := m.cfg.ITLBLat + m.cfg.STLBLat
	if e, ok := m.stlb.Lookup(va, m.asid); ok {
		m.itlb.Insert(e)
		m.stats.TransCycles += lat
		return Result{PA: e.Size.Translate(e.Frame, va), Size: e.Size, Lat: lat}
	}
	m.stats.L2TLBMisses++
	res := m.translateMiss(va, now+lat)
	m.stats.Walks++
	m.stats.WalkCycles += res.Lat
	lat += res.Lat
	m.stats.TransCycles += lat
	if res.Fault {
		m.stats.Faults++
		return Result{Lat: lat, Fault: true}
	}
	e := tlb.Entry{VPN: res.Size.VPN(va), Size: res.Size, Frame: res.Size.FrameBase(res.PA), ASID: m.asid}
	m.stlb.Insert(e)
	m.itlb.Insert(e)
	return Result{PA: res.Size.Translate(res.PA, va), Size: res.Size, Lat: lat}
}

func (m *MMU) fillL1(e tlb.Entry) {
	if e.Size == mem.Page4K {
		m.dtlb4k.Insert(e)
	} else {
		m.dtlb2m.Insert(e)
	}
}

// Invalidate performs a TLB shootdown for one page.
func (m *MMU) Invalidate(va mem.VAddr, size mem.PageSize) {
	m.itlb.InvalidateVA(va, m.asid)
	m.dtlb4k.InvalidateVA(va, m.asid)
	m.dtlb2m.InvalidateVA(va, m.asid)
	m.stlb.InvalidateVA(va, m.asid)
	m.design.Invalidate(va, size)
}

// FlushAll flushes the whole TLB hierarchy (context switch).
func (m *MMU) FlushAll() {
	m.itlb.InvalidateAll()
	m.dtlb4k.InvalidateAll()
	m.dtlb2m.InvalidateAll()
	m.stlb.InvalidateAll()
}
