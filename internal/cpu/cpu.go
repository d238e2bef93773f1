// Package cpu implements the processor performance model: a 4-wide
// out-of-order core in the interval-simulation tradition of Sniper
// (Carlson et al., SC'11) — instructions dispatch at pipeline width,
// long-latency events (TLB misses, walks, LLC misses, page faults)
// insert intervals whose penalty depends on exploitable memory-level
// parallelism. The same pipeline executes application instructions and
// injected MimicOS streams, so kernel code is charged real cycles and
// pollutes the same caches.
package cpu

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// FaultHandler is invoked when a translation faults; it must resolve the
// fault (the Virtuoso engine routes it to MimicOS) and return false only
// if the fault is unresolvable (SIGSEGV).
type FaultHandler func(va mem.VAddr, write bool) bool

// Config describes the core (Table 4: 4-way OoO x86 at 2.9 GHz).
type Config struct {
	Width         float64 // dispatch width
	FreqGHz       float64
	LoadMLP       float64 // overlap factor for load misses beyond L2
	StoreBufMLP   float64 // overlap factor for store misses
	FetchBytes    uint64  // bytes fetched per I-cache access
	BranchMiss    float64 // misprediction rate applied to branch ops
	BranchPenalty uint64
}

// DefaultConfig returns the Table 4 core.
func DefaultConfig() Config {
	return Config{
		Width:         4,
		FreqGHz:       2.9,
		LoadMLP:       4,
		StoreBufMLP:   8,
		FetchBytes:    64,
		BranchMiss:    0.03,
		BranchPenalty: 14,
	}
}

// Stats aggregates core activity.
type Stats struct {
	AppInsts    uint64
	KernelInsts uint64
	Cycles      uint64

	TranslationCycles uint64 // stall cycles attributable to translation
	MemoryCycles      uint64 // stall cycles on data accesses
	FaultCycles       uint64 // cycles spent executing injected OS streams
	DelayCycles       uint64 // device delays inside kernel streams
	FetchCycles       uint64
	CtxSwitchCycles   uint64 // scheduler context-switch cost (multi-process)

	Loads, Stores   uint64
	SegvFaults      uint64
	ContextSwitches uint64 // scheduler dispatches of a different process
}

// IPC returns application instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.AppInsts) / float64(s.Cycles)
}

// Core is one simulated core.
type Core struct {
	cfg   Config
	hier  *cache.Hierarchy
	mmu   *mmu.MMU
	fault FaultHandler

	cycles     float64
	fetchAccum uint64 // bytes of instructions since last fetch
	branchSeed uint64
	kernelMode bool
	stats      Stats
	kernelTap  func(isa.Inst)

	// KernelCodeBase is the physical region kernel code fetches hit.
	KernelCodeBase mem.PAddr
}

// New builds a core over the given cache hierarchy and MMU.
func New(cfg Config, h *cache.Hierarchy, m *mmu.MMU) *Core {
	if cfg.Width == 0 {
		cfg = DefaultConfig()
	}
	return &Core{cfg: cfg, hier: h, mmu: m, KernelCodeBase: 0x1000_0000}
}

// SetFaultHandler installs the engine's page-fault callback.
func (c *Core) SetFaultHandler(f FaultHandler) { c.fault = f }

// SetKernelTap installs an observer invoked for every instruction of an
// injected kernel stream, just before the core executes it. Range
// records reach it line by line, as the core runs them. Pass nil to
// remove it.
func (c *Core) SetKernelTap(f func(isa.Inst)) { c.kernelTap = f }

// Stats returns the core statistics (Cycles synced from the internal
// accumulator).
func (c *Core) Stats() *Stats {
	c.stats.Cycles = uint64(c.cycles)
	return &c.stats
}

// Now returns the current cycle.
func (c *Core) Now() uint64 { return uint64(c.cycles) }

// CyclesToNs converts cycles to nanoseconds.
func (c *Core) CyclesToNs(cy uint64) float64 { return float64(cy) / c.cfg.FreqGHz }

// MMU returns the core's MMU.
func (c *Core) MMU() *mmu.MMU { return c.mmu }

// EnterKernel switches the pipeline to kernel-stream execution and
// returns a function restoring the previous mode.
func (c *Core) EnterKernel() func() {
	prev := c.kernelMode
	c.kernelMode = true
	return func() { c.kernelMode = prev }
}

// Run executes one instruction (or batch) through the pipeline.
func (c *Core) Run(in isa.Inst) {
	n := in.N()
	if in.Op == isa.OpDelay {
		c.cycles += float64(n)
		c.stats.DelayCycles += n
		return
	}
	if c.kernelMode {
		c.stats.KernelInsts += n
	} else {
		c.stats.AppInsts += n
	}

	// Frontend: one I-fetch per fetch-group of instructions.
	c.fetchAccum += 4 * n
	if c.fetchAccum >= c.cfg.FetchBytes {
		c.fetchAccum = 0
		c.instrFetch(in.PC, in.Phys || c.kernelMode)
	}

	// Dispatch occupancy.
	c.cycles += float64(n) / c.cfg.Width

	switch in.Op {
	case isa.OpALU:
		// fully pipelined
	case isa.OpFP:
		c.cycles += float64(n) * 0.25 // longer latency, partially hidden
	case isa.OpBranch:
		// Deterministic misprediction sampling.
		c.branchSeed = c.branchSeed*6364136223846793005 + 1442695040888963407
		miss := float64(c.branchSeed>>11) / (1 << 53)
		if miss < c.cfg.BranchMiss {
			c.cycles += float64(c.cfg.BranchPenalty)
		}
	case isa.OpLoad, isa.OpStore, isa.OpAtomic:
		c.memOp(in)
	case isa.OpMagic:
		c.cycles++
	}
}

// RunStream executes a full instruction stream (injected kernel code),
// returning the cycles it consumed. Range records run line by line,
// exactly as their per-line form (isa.Stream.Expand) would.
func (c *Core) RunStream(s isa.Stream) uint64 {
	start := uint64(c.cycles)
	restore := c.EnterKernel()
	for i := 0; i < len(s); i++ {
		in := s[i]
		switch in.Op {
		case isa.OpZeroLines:
			c.runLines(in.N(), in.PC, 0, in.Addr, false)
		case isa.OpCopyLines:
			i++ // s[i] is the OpCopyDst record
			c.runLines(in.N(), in.PC, in.Addr, s[i].Addr, true)
		default:
			if c.kernelTap != nil {
				c.kernelTap(in)
			}
			c.Run(in)
		}
	}
	restore()
	spent := uint64(c.cycles) - start
	c.stats.FaultCycles += spent
	return spent
}

// runLines executes n lines of a range record: line i stores dst+64i,
// and a copy loads src+64i first. This is the one loop range records run
// through.
func (c *Core) runLines(n, pc, src, dst uint64, copying bool) {
	for ; n > 0; n-- {
		if copying {
			c.runLine(isa.OpLoad, pc, src)
			pc, src = pc+4, src+mem.CacheLineBytes
		}
		c.runLine(isa.OpStore, pc, dst)
		pc, dst = pc+4, dst+mem.CacheLineBytes
	}
}

// runLine executes one load or store of a range record, the physical
// kernel instruction Stream.Expand gives for it, charging exactly what
// Run charges for that instruction. It builds the instruction only for
// an installed kernel tap.
func (c *Core) runLine(op isa.Op, pc, addr uint64) {
	if c.kernelTap != nil {
		c.kernelTap(isa.Inst{Op: op, Phys: true, Count: 1, PC: pc, Addr: addr})
	}
	c.stats.KernelInsts++
	c.fetchAccum += 4
	if c.fetchAccum >= c.cfg.FetchBytes {
		c.fetchAccum = 0
		c.instrFetch(pc, true)
	}
	c.cycles += 1 / c.cfg.Width
	if op == isa.OpStore {
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}
	c.access(mem.PAddr(addr), op, mem.ATKernel, pc, 0)
}

// instrFetch fetches the instruction group at pc: kernel code from the
// direct-mapped code region, application code through the MMU.
func (c *Core) instrFetch(pc uint64, kernel bool) {
	now := uint64(c.cycles)
	var lat uint64
	if kernel {
		// Kernel code fetch: direct-mapped region, no translation.
		pa := c.KernelCodeBase + mem.PAddr(pc&0x3f_ffff)
		lat = c.hier.FetchInstr(pa, now)
	} else {
		res := c.mmu.TranslateInstr(mem.VAddr(pc), now)
		if res.Fault {
			if !c.resolveFault(mem.VAddr(pc), false) {
				return
			}
			res = c.mmu.TranslateInstr(mem.VAddr(pc), uint64(c.cycles))
			if res.Fault {
				c.stats.SegvFaults++
				return
			}
		}
		lat = res.Lat + c.hier.FetchInstr(res.PA, uint64(c.cycles))
	}
	// Frontend latency is mostly hidden by the fetch queue; charge the
	// portion beyond the L1I hit latency at a discount.
	hide := c.hier.L1I.Latency()
	if lat > hide {
		extra := float64(lat-hide) / 2
		c.cycles += extra
		c.stats.FetchCycles += uint64(extra)
	}
}

func (c *Core) memOp(in isa.Inst) {
	write := in.Op.IsWrite()
	if write {
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}
	now := uint64(c.cycles)

	var pa mem.PAddr
	var transLat uint64
	atype := mem.ATData
	if in.Phys {
		// Kernel direct map: no translation.
		pa = mem.PAddr(in.Addr)
		atype = mem.ATKernel
	} else {
		res := c.mmu.Translate(mem.VAddr(in.Addr), write, now)
		if res.Fault {
			if !c.resolveFault(mem.VAddr(in.Addr), write) {
				c.stats.SegvFaults++
				return
			}
			res = c.mmu.Translate(mem.VAddr(in.Addr), write, uint64(c.cycles))
			if res.Fault {
				c.stats.SegvFaults++
				return
			}
		}
		pa = res.PA
		transLat = res.Lat
	}
	c.access(pa, in.Op, atype, in.PC, transLat)
}

// access performs the data access of a load, store or atomic op at pa,
// translated in transLat cycles, and charges its stalls.
func (c *Core) access(pa mem.PAddr, op isa.Op, atype mem.AccessType, pc, transLat uint64) {
	write := op.IsWrite()
	memLat := c.hier.Access(pa, write, atype, pc, uint64(c.cycles))

	// Interval model: translation beyond the L1 TLB hit serialises with
	// the access; data latency beyond L2 overlaps with the configured MLP.
	l1tlb := uint64(1)
	if transLat > l1tlb {
		stall := float64(transLat - l1tlb)
		c.cycles += stall
		c.stats.TranslationCycles += uint64(stall)
	}
	serial := c.hier.L1D.Latency() + c.hier.L2.Latency()
	var stall float64
	switch {
	case op == isa.OpAtomic:
		stall = float64(memLat) // atomics serialise
	case write:
		stall = float64(memLat) / c.cfg.StoreBufMLP
	case memLat <= serial:
		stall = float64(memLat) / 2 // mostly hidden by OoO window
	default:
		stall = float64(serial)/2 + float64(memLat-serial)/c.cfg.LoadMLP
	}
	c.cycles += stall
	c.stats.MemoryCycles += uint64(stall)
}

// StallFault advances the pipeline by the given cycles, attributing them
// to OS fault handling (fixed-latency emulation mode, reference noise).
func (c *Core) StallFault(cycles uint64) {
	c.cycles += float64(cycles)
	c.stats.FaultCycles += cycles
}

// ContextSwitch advances the pipeline by the scheduler's switch cost
// (state save/restore, run-queue work, pipeline drain), attributed to
// its own counter so multiprogrammed runs can report scheduling
// overhead separately from OS fault work.
func (c *Core) ContextSwitch(cycles uint64) {
	c.cycles += float64(cycles)
	c.stats.CtxSwitchCycles += cycles
	c.stats.ContextSwitches++
}

// resolveFault invokes the engine's fault handler.
func (c *Core) resolveFault(va mem.VAddr, write bool) bool {
	if c.fault == nil {
		return false
	}
	return c.fault(va, write)
}
