// Package tier models an N-tier physical memory hierarchy between DRAM
// and the swap device: one or more slow tiers (NVM, CXL-attached
// memory, remote pools) with per-tier capacity, read/write latency, and
// bandwidth, plus per-page residency tracking and pluggable migration
// policies. The modeling approach follows the hybrid-memory emulation
// literature (latency/bandwidth-calibrated tiers, hot/cold-driven
// migration): MimicOS demotes cold DRAM pages into slow tiers under
// pressure, cascades evictions down the hierarchy toward swap, and
// promotes slow-tier pages back to DRAM on the fault that touches them
// — the NUMA-hint-fault promotion path of Linux's tiered-memory
// support, imitated on the fault clock.
//
// Pages tracked here are unmapped: a slow-tier page has no PTE, so the
// next access faults and MimicOS consults the Manager before falling
// into the anonymous/file paths. The package is purely functional
// bookkeeping — all simulated time (migration latency, bandwidth,
// kernel work) is charged by the mimicos caller through its tracer.
package tier

import (
	"fmt"

	"repro/internal/mem"
)

// Spec describes one slow memory tier. Tiers are ordered fastest to
// slowest; DRAM (tier 0 of the machine) and the swap device (the
// implicit terminal tier) are not listed — specs cover only the levels
// in between.
type Spec struct {
	// Name identifies the tier in metrics and CLI flags ("cxl", "nvm",
	// ...). "dram" and "swap" are reserved for the implicit end tiers.
	Name string `json:"name"`
	// Bytes is the tier capacity.
	Bytes uint64 `json:"bytes"`
	// ReadLat / WriteLat are the device access latencies in CPU cycles
	// charged per page migration out of / into the tier.
	ReadLat  uint64 `json:"read_lat"`
	WriteLat uint64 `json:"write_lat"`
	// BytesPerCycle models transfer bandwidth: migrating a page adds
	// bytes/BytesPerCycle cycles on top of the access latency. Zero
	// disables the bandwidth term (latency-only model).
	BytesPerCycle uint64 `json:"bytes_per_cycle,omitempty"`
}

// ReadCost returns the cycles to read n bytes out of the tier.
func (s Spec) ReadCost(n uint64) uint64 {
	c := s.ReadLat
	if s.BytesPerCycle > 0 {
		c += n / s.BytesPerCycle
	}
	return c
}

// WriteCost returns the cycles to write n bytes into the tier.
func (s Spec) WriteCost(n uint64) uint64 {
	c := s.WriteLat
	if s.BytesPerCycle > 0 {
		c += n / s.BytesPerCycle
	}
	return c
}

// ValidateSpecs rejects tier configurations that would otherwise fail
// mid-run: zero capacities, zero latencies, duplicate or reserved
// names. It is called at Open/ParseSweepSpec time so a bad -tiers flag
// or sweep spec errors loudly up front.
func ValidateSpecs(specs []Spec) error {
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("tier %d: empty name", i)
		}
		if s.Name == "dram" {
			return fmt.Errorf("tier %d: name %q is reserved (DRAM is the implicit fastest tier)", i, s.Name)
		}
		if s.Name == "swap" {
			return fmt.Errorf("tier %d: name %q is reserved (swap is the implicit terminal tier and always comes last)", i, s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("tier %d: duplicate name %q", i, s.Name)
		}
		seen[s.Name] = true
		if s.Bytes == 0 {
			return fmt.Errorf("tier %q: zero capacity", s.Name)
		}
		if s.Bytes < mem.Page4K.Bytes() {
			return fmt.Errorf("tier %q: capacity %d smaller than one 4KB page", s.Name, s.Bytes)
		}
		if s.ReadLat == 0 {
			return fmt.Errorf("tier %q: zero read latency", s.Name)
		}
		if s.WriteLat == 0 {
			return fmt.Errorf("tier %q: zero write latency", s.Name)
		}
	}
	return nil
}

// Stats aggregates one tier's activity over a run.
type Stats struct {
	Name string `json:"name"`
	// UsedBytes is the tier occupancy when the snapshot was taken.
	UsedBytes uint64 `json:"used_bytes"`
	// PagesIn counts pages migrated into the tier (demotions from DRAM
	// or evictions cascading down from a faster tier); PagesOut counts
	// pages leaving it (promotions to DRAM, evictions downward).
	PagesIn  uint64 `json:"pages_in"`
	PagesOut uint64 `json:"pages_out"`
	// Promotions is the subset of PagesOut promoted straight to DRAM.
	Promotions uint64 `json:"promotions"`
	// ReadCycles / WriteCycles are the device cycles charged for
	// migrations out of / into the tier.
	ReadCycles  uint64 `json:"read_cycles"`
	WriteCycles uint64 `json:"write_cycles"`
}

// Page is one tier-resident page record. Tier pages are unmapped (no
// PTE): VA is the page base the record is keyed by, and Heat carries
// the hot/cold estimate across demotions so a page's history follows
// it down the hierarchy.
type Page struct {
	PID  int
	VA   mem.VAddr
	Size mem.PageSize
	Heat uint32
}

type pageKey struct {
	pid int
	va  mem.VAddr
}

type pageLoc struct {
	tier int
	slot int
}

// tierState is one tier's residency list: a slot slice clock-scanned
// for victims (dead slots are reused LIFO, mirroring the swap-slot free
// list) plus occupancy and counters. The only map is the Manager-wide
// index, used strictly for O(1) point lookups — never iterated — so
// every result-affecting traversal is a deterministic slice scan.
type tierState struct {
	pages []Page
	live  []bool
	free  []int
	hand  int
	used  uint64
	stats Stats
}

// Manager tracks page residency across the configured slow tiers.
type Manager struct {
	specs []Spec
	pol   Policy
	tiers []tierState
	idx   map[pageKey]pageLoc
}

// NewManager builds a manager over specs (assumed validated). pol may
// be nil when the policy comes from the extension registry; the engine
// installs it via SetPolicy before the first fault.
func NewManager(specs []Spec, pol Policy) *Manager {
	m := &Manager{
		specs: specs,
		pol:   pol,
		tiers: make([]tierState, len(specs)),
		idx:   make(map[pageKey]pageLoc),
	}
	for i := range m.tiers {
		m.tiers[i].stats.Name = specs[i].Name
	}
	return m
}

// Enabled reports whether any slow tier is configured.
func (m *Manager) Enabled() bool { return m != nil && len(m.specs) > 0 }

// SlowTiers returns the number of configured slow tiers.
func (m *Manager) SlowTiers() int { return len(m.specs) }

// Spec returns tier t's configuration.
func (m *Manager) Spec(t int) Spec { return m.specs[t] }

// Policy returns the installed migration policy.
func (m *Manager) Policy() Policy { return m.pol }

// SetPolicy installs the migration policy (engine hook for
// registry-registered policies). Must precede the first fault.
func (m *Manager) SetPolicy(p Policy) { m.pol = p }

// HasRoom reports whether tier t can take n more bytes.
func (m *Manager) HasRoom(t int, n uint64) bool {
	return m.tiers[t].used+n <= m.specs[t].Bytes
}

// Insert records a page migrated into tier t. The caller has checked
// capacity (HasRoom / eviction cascade).
func (m *Manager) Insert(t int, pg Page) {
	ts := &m.tiers[t]
	var slot int
	if n := len(ts.free); n > 0 {
		slot = ts.free[n-1]
		ts.free = ts.free[:n-1]
		ts.pages[slot] = pg
		ts.live[slot] = true
	} else {
		slot = len(ts.pages)
		ts.pages = append(ts.pages, pg)
		ts.live = append(ts.live, true)
	}
	ts.used += pg.Size.Bytes()
	ts.stats.PagesIn++
	m.idx[pageKey{pg.PID, pg.VA}] = pageLoc{tier: t, slot: slot}
}

// Lookup finds the tier record covering va (tier pages are 4K today,
// but 2M bases are probed too so a future huge-page demotion path keeps
// working). It returns the record, its tier, and whether it exists.
func (m *Manager) Lookup(pid int, va mem.VAddr) (Page, int, bool) {
	if loc, ok := m.idx[pageKey{pid, mem.Page4K.PageBase(va)}]; ok {
		return m.tiers[loc.tier].pages[loc.slot], loc.tier, true
	}
	if loc, ok := m.idx[pageKey{pid, mem.Page2M.PageBase(va)}]; ok {
		pg := m.tiers[loc.tier].pages[loc.slot]
		if pg.Size == mem.Page2M {
			return pg, loc.tier, true
		}
	}
	return Page{}, 0, false
}

// Contains reports whether a tier record covers va.
func (m *Manager) Contains(pid int, va mem.VAddr) bool {
	_, _, ok := m.Lookup(pid, va)
	return ok
}

// remove deletes the exact record (pid, base) and returns it.
func (m *Manager) remove(pid int, base mem.VAddr) (Page, int, bool) {
	key := pageKey{pid, base}
	loc, ok := m.idx[key]
	if !ok {
		return Page{}, 0, false
	}
	ts := &m.tiers[loc.tier]
	pg := ts.pages[loc.slot]
	ts.live[loc.slot] = false
	ts.free = append(ts.free, loc.slot)
	ts.used -= pg.Size.Bytes()
	delete(m.idx, key)
	return pg, loc.tier, true
}

// Promote removes the record at its exact base for promotion to DRAM,
// counting it against the source tier.
func (m *Manager) Promote(pid int, base mem.VAddr) (Page, bool) {
	pg, t, ok := m.remove(pid, base)
	if !ok {
		return Page{}, false
	}
	m.tiers[t].stats.PagesOut++
	m.tiers[t].stats.Promotions++
	return pg, true
}

// Evict removes the record at its exact base for migration to a deeper
// tier or swap, counting it out of the source tier.
func (m *Manager) Evict(pid int, base mem.VAddr) (Page, bool) {
	pg, t, ok := m.remove(pid, base)
	if !ok {
		return Page{}, false
	}
	m.tiers[t].stats.PagesOut++
	return pg, true
}

// PickVictim clock-scans tier t for an eviction victim: a first pass
// takes the first page the policy calls evictable (decaying the heat of
// pages it spares, CLOCK's second chance), and a desperate second pass
// takes the first live page. The record is not removed — callers Evict
// it once the migration succeeded.
func (m *Manager) PickVictim(t int) (Page, bool) {
	ts := &m.tiers[t]
	n := len(ts.pages)
	if n == 0 {
		return Page{}, false
	}
	for pass := 0; pass < 2; pass++ {
		for scanned := 0; scanned < n; scanned++ {
			if ts.hand >= n {
				ts.hand = 0
			}
			slot := ts.hand
			ts.hand++
			if !ts.live[slot] {
				continue
			}
			pg := &ts.pages[slot]
			if pass == 0 && !m.pol.Victim(pg.Heat, 0) {
				pg.Heat = m.pol.Decay(pg.Heat)
				continue
			}
			return *pg, true
		}
	}
	return Page{}, false
}

// RemoveRange drops every record of pid inside [start, end) — the
// munmap teardown path. The scan walks the tier slices (bounded by tier
// capacity), not the index map, so removal order is deterministic.
func (m *Manager) RemoveRange(pid int, start, end mem.VAddr) int {
	removed := 0
	for t := range m.tiers {
		ts := &m.tiers[t]
		for slot := range ts.pages {
			if !ts.live[slot] {
				continue
			}
			pg := ts.pages[slot]
			if pg.PID != pid || pg.VA < start || pg.VA >= end {
				continue
			}
			m.remove(pid, pg.VA)
			removed++
		}
	}
	return removed
}

// RemovePID drops every record of an exiting process.
func (m *Manager) RemovePID(pid int) int {
	removed := 0
	for t := range m.tiers {
		ts := &m.tiers[t]
		for slot := range ts.pages {
			if !ts.live[slot] {
				continue
			}
			pg := ts.pages[slot]
			if pg.PID != pid {
				continue
			}
			m.remove(pid, pg.VA)
			removed++
		}
	}
	return removed
}

// PageCount returns the number of live records across all tiers.
func (m *Manager) PageCount() int { return len(m.idx) }

// UsedBytes returns tier t's occupancy.
func (m *Manager) UsedBytes(t int) uint64 { return m.tiers[t].used }

// AddReadCycles charges migration read time to tier t's counters.
func (m *Manager) AddReadCycles(t int, c uint64) { m.tiers[t].stats.ReadCycles += c }

// AddWriteCycles charges migration write time to tier t's counters.
func (m *Manager) AddWriteCycles(t int, c uint64) { m.tiers[t].stats.WriteCycles += c }

// Stats returns a per-tier counter snapshot, occupancy included.
func (m *Manager) Stats() []Stats {
	out := make([]Stats, len(m.tiers))
	for i := range m.tiers {
		s := m.tiers[i].stats
		s.UsedBytes = m.tiers[i].used
		out[i] = s
	}
	return out
}
