// Package dram models a DDR4 main-memory subsystem at the granularity the
// paper's evaluation requires: banked row buffers with per-access-type
// hit/conflict attribution (so experiments can report row-buffer conflicts
// caused by page-table and translation-metadata traffic separately from
// application data — Figs. 14 and 21), realistic activate/precharge/CAS
// timing, and approximate bank-level queueing contention.
//
// The model is a heavily refactored Ramulator-inspired controller, as the
// paper describes for its Sniper baseline ("we heavily refactored and
// enhanced the baseline DRAM model inspired from Ramulator").
package dram

import (
	"fmt"

	"repro/internal/mem"
)

// Config describes the memory geometry and timing in CPU cycles.
type Config struct {
	Channels    int    // independent channels
	BanksPerCh  int    // banks per channel
	RowBytes    uint64 // row-buffer size per bank
	TCAS        uint64 // CAS latency (cycles)
	TRCD        uint64 // RAS-to-CAS delay (cycles)
	TRP         uint64 // precharge (cycles)
	TBurst      uint64 // data burst (cycles)
	CtrlLatency uint64 // fixed controller/on-chip-network overhead (cycles)
	MaxQueue    uint64 // cap on modeled per-bank queueing delay (cycles)
}

// DDR4_2400 returns the paper's Table 4 configuration (DDR4-2400,
// tRCD = tCL = 12.5 ns, tRP = 2.5 ns) converted to cycles of the 2.9 GHz
// core: 12.5 ns ≈ 36 cycles, 2.5 ns ≈ 7 cycles.
func DDR4_2400() Config {
	return Config{
		Channels:    2,
		BanksPerCh:  16,
		RowBytes:    8 * mem.KB,
		TCAS:        36,
		TRCD:        36,
		TRP:         7,
		TBurst:      4,
		CtrlLatency: 18,
		MaxQueue:    400,
	}
}

type bank struct {
	openRow   int64 // -1 when precharged
	busyUntil uint64
	openedBy  mem.AccessType // type of the access that opened the current row
}

// Stats aggregates controller activity, attributed per access type.
type Stats struct {
	Accesses     [mem.NumAccessTypes]uint64
	RowHits      [mem.NumAccessTypes]uint64
	RowConflicts [mem.NumAccessTypes]uint64 // access found a different row open
	RowMisses    [mem.NumAccessTypes]uint64 // access found the bank precharged
	Reads        uint64
	Writes       uint64
	QueueCycles  uint64 // total modeled queueing delay
	// ConflictsCausedTo[x] counts conflicts where the *displaced* row had
	// been opened by type x — i.e., traffic of type x was the victim.
	ConflictsCausedTo [mem.NumAccessTypes]uint64
}

// TotalAccesses returns the access count across all types.
func (s *Stats) TotalAccesses() uint64 {
	var n uint64
	for _, v := range s.Accesses {
		n += v
	}
	return n
}

// TotalConflicts returns row-buffer conflicts across all types.
func (s *Stats) TotalConflicts() uint64 {
	var n uint64
	for _, v := range s.RowConflicts {
		n += v
	}
	return n
}

// TranslationConflicts returns row-buffer conflicts caused by page-table
// plus translation-metadata accesses — the quantity plotted in Fig. 21.
func (s *Stats) TranslationConflicts() uint64 {
	return s.RowConflicts[mem.ATPTE] + s.RowConflicts[mem.ATTransMeta]
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s *Stats) RowHitRate() float64 {
	t := s.TotalAccesses()
	if t == 0 {
		return 0
	}
	var h uint64
	for _, v := range s.RowHits {
		h += v
	}
	return float64(h) / float64(t)
}

// Controller is a multi-channel, multi-bank DRAM controller with open-page
// policy and per-bank busy tracking.
type Controller struct {
	cfg   Config
	banks []bank
	stats Stats
}

// NewController builds a controller for cfg. Zero-valued fields are
// replaced by DDR4_2400 defaults.
func NewController(cfg Config) *Controller {
	def := DDR4_2400()
	if cfg.Channels == 0 {
		cfg.Channels = def.Channels
	}
	if cfg.BanksPerCh == 0 {
		cfg.BanksPerCh = def.BanksPerCh
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.TCAS == 0 {
		cfg.TCAS = def.TCAS
	}
	if cfg.TRCD == 0 {
		cfg.TRCD = def.TRCD
	}
	if cfg.TRP == 0 {
		cfg.TRP = def.TRP
	}
	if cfg.TBurst == 0 {
		cfg.TBurst = def.TBurst
	}
	if cfg.CtrlLatency == 0 {
		cfg.CtrlLatency = def.CtrlLatency
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = def.MaxQueue
	}
	n := cfg.Channels * cfg.BanksPerCh
	c := &Controller{cfg: cfg, banks: make([]bank, n)}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// bankAndRow maps a physical address to (global bank index, row id).
// Consecutive rows interleave across channels then banks, the usual
// XOR-free row-interleaved mapping.
func (c *Controller) bankAndRow(pa mem.PAddr) (int, int64) {
	rowID := uint64(pa) / c.cfg.RowBytes
	nb := uint64(len(c.banks))
	return int(rowID % nb), int64(rowID / nb)
}

// Access performs one memory transaction of type t at current time now and
// returns the access latency in cycles (including modeled queueing).
func (c *Controller) Access(pa mem.PAddr, write bool, t mem.AccessType, now uint64) uint64 {
	bi, row := c.bankAndRow(pa)
	b := &c.banks[bi]

	c.stats.Accesses[t]++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	// Queueing: if the bank is still busy with earlier transactions,
	// the request waits (bounded, to keep the accumulation model stable).
	var queue uint64
	if b.busyUntil > now {
		queue = b.busyUntil - now
		if queue > c.cfg.MaxQueue {
			queue = c.cfg.MaxQueue
		}
		c.stats.QueueCycles += queue
	}

	var svc uint64
	switch {
	case b.openRow == row:
		c.stats.RowHits[t]++
		svc = c.cfg.TCAS + c.cfg.TBurst
	case b.openRow == -1:
		c.stats.RowMisses[t]++
		svc = c.cfg.TRCD + c.cfg.TCAS + c.cfg.TBurst
	default:
		c.stats.RowConflicts[t]++
		c.stats.ConflictsCausedTo[b.openedBy]++
		svc = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS + c.cfg.TBurst
	}
	b.openRow = row
	b.openedBy = t
	start := now + queue
	b.busyUntil = start + svc

	return c.cfg.CtrlLatency + queue + svc
}

// Stats returns a snapshot pointer of the controller statistics.
func (c *Controller) Stats() *Stats { return &c.stats }

// String summarises the controller state.
func (c *Controller) String() string {
	return fmt.Sprintf("dram{ch=%d banks=%d rowKB=%d hits=%.1f%%}",
		c.cfg.Channels, c.cfg.BanksPerCh, c.cfg.RowBytes/mem.KB, 100*c.stats.RowHitRate())
}
