// Package instrument is this repository's stand-in for the dynamic binary
// instrumentation tool (Intel Pin / DynamoRIO) of the paper's methodology
// (§4.2): MimicOS routines execute against a Tracer that records, as they
// run, the instruction stream they would have executed — ALU work,
// branches, and loads/stores at the *actual physical addresses* of kernel
// objects, page-table entries and data pages. The Virtuoso engine then
// injects that stream into the simulator's core model through the
// instruction-stream channel, so OS routines are charged their real
// latency and create real cache pollution and DRAM interference.
//
// The instruction count is path-dependent by construction: a page fault
// that zeroes a 2 MB page runs 32768 cache-line stores, while a fault
// served from the zero-page pool runs a handful — reproducing the
// heavy-tailed minor-fault latency distributions of Fig. 2. Zeroing and
// copying are recorded as range records (isa.OpZeroLines,
// isa.OpCopyLines), so that 2 MB clear is one record in the stream and
// the core expands it line by line when it executes it.
package instrument

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// RoutineStat aggregates per-routine activity, used to report where
// kernel time goes (and for the §7.3 instruction-count correlation).
type RoutineStat struct {
	Calls  uint64
	Insts  uint64
	MemOps uint64
}

// Tracer records the instruction stream of the currently executing kernel
// event. One Tracer serves one kernel worker; Begin/Take bracket one
// event (e.g., one page fault).
type Tracer struct {
	stream isa.Stream
	frames []frame
	pc     uint64
	stats  map[string]*routine
	insts  uint64 // dynamic instructions in the current stream
	total  uint64 // lifetime dynamic instruction count
	exitFn func() // t.exit, bound once so Enter returns it without allocating
}

// routine is one kernel routine's statistics plus its synthetic
// code-region PC, derived from the name when the routine is first seen.
type routine struct {
	RoutineStat
	pc uint64
}

// frame is one active routine: everything its exit needs.
type frame struct {
	start uint64   // t.insts at entry
	pc    uint64   // the caller's PC, restored at exit
	r     *routine // resolved once at Enter; memStat runs per kernel memory record
}

// streamCap is the record capacity a new tracer preallocates. With
// zeroing and copying as range records a fault is tens of records (at
// most 38 on the scaled XS machine), so the buffer is allocated once;
// only long reclaim scans regrow it.
const streamCap = 64

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	t := &Tracer{stream: make(isa.Stream, 0, streamCap), stats: make(map[string]*routine)}
	t.exitFn = t.exit
	return t
}

// Begin resets the tracer for a new kernel event.
func (t *Tracer) Begin() {
	t.stream = t.stream[:0]
	t.insts = 0
}

// Take returns the recorded stream for the completed event. The returned
// slice is valid until the next Begin; callers that retain it must copy.
func (t *Tracer) Take() isa.Stream { return t.stream }

// TotalInsts returns the lifetime kernel instruction count.
func (t *Tracer) TotalInsts() uint64 { return t.total }

// Enter marks entry into a named kernel routine and returns the matching
// exit function. Routine names give each routine a distinct synthetic
// code region so injected kernel code exercises the I-cache realistically.
//
// The exit function must be called exactly once per Enter, in reverse
// order of the Enter calls (the usual `defer exit()` does this): it
// closes whichever routine was entered most recently. Once a routine
// name has been seen, Enter and exit do not allocate.
func (t *Tracer) Enter(name string) func() {
	r := t.stats[name]
	if r == nil {
		// Each routine occupies a 16 KB synthetic code region derived
		// from its name.
		r = &routine{pc: 0xffff_8000_0000_0000 | (xrand.Hash64(hashName(name), 0x05) & 0x3fff_ffff << 14)}
		t.stats[name] = r
	}
	r.Calls++
	t.frames = append(t.frames, frame{start: t.insts, pc: t.pc, r: r})
	t.pc = r.pc
	t.emit(isa.Inst{Op: isa.OpBranch, Count: 1, PC: t.pc, Phys: true}) // call
	return t.exitFn
}

// exit closes the innermost active routine: it records the ret, charges
// the routine every instruction emitted since its Enter, and returns to
// the caller's PC.
func (t *Tracer) exit() {
	n := len(t.frames) - 1
	f := t.frames[n]
	t.emit(isa.Inst{Op: isa.OpBranch, Count: 1, PC: t.pc, Phys: true}) // ret
	f.r.Insts += t.insts - f.start
	t.pc = f.pc
	t.frames = t.frames[:n]
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (t *Tracer) emit(in isa.Inst) {
	t.stream = append(t.stream, in)
	if in.Op != isa.OpDelay {
		n := in.N()
		t.insts += n
		t.total += n
	}
}

func (t *Tracer) bumpPC(n uint64) { t.pc += 4 * n }

// ALU records n register-only instructions.
func (t *Tracer) ALU(n uint32) {
	if n == 0 {
		return
	}
	t.emit(isa.Inst{Op: isa.OpALU, Count: n, PC: t.pc, Phys: true})
	t.bumpPC(uint64(n))
}

// Branch records n branches.
func (t *Tracer) Branch(n uint32) {
	if n == 0 {
		return
	}
	t.emit(isa.Inst{Op: isa.OpBranch, Count: n, PC: t.pc, Phys: true})
	t.bumpPC(uint64(n))
}

// Load records a kernel load at physical address pa.
func (t *Tracer) Load(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpLoad, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
	t.memStat(1)
}

// Store records a kernel store at physical address pa.
func (t *Tracer) Store(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpStore, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
	t.memStat(1)
}

// Atomic records a locked RMW at pa (spinlock acquisition, refcounts);
// these are the §4.3 synchronisation overheads of the multithreaded
// kernel.
func (t *Tracer) Atomic(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpAtomic, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
	t.memStat(1)
}

// Delay records a pipeline stall of the given cycles (device time, e.g.,
// an SSD access simulated by MQSim).
func (t *Tracer) Delay(cycles uint64) {
	for cycles > 0 {
		chunk := cycles
		if chunk > 1<<31 {
			chunk = 1 << 31
		}
		t.emit(isa.Inst{Op: isa.OpDelay, Count: uint32(chunk), Phys: true})
		cycles -= chunk
	}
}

// Magic records a magic (doorbell) instruction marking a functional
// channel synchronisation point.
func (t *Tracer) Magic() {
	t.emit(isa.Inst{Op: isa.OpMagic, Count: 1, PC: t.pc, Phys: true})
	t.bumpPC(1)
}

// memStat charges n memory operations to the innermost routine.
func (t *Tracer) memStat(n uint64) {
	if k := len(t.frames); k > 0 {
		t.frames[k-1].r.MemOps += n
	}
}

// ZeroRange records clearing [pa, pa+bytes) — the dominant cost of
// huge-page allocation — as one isa.OpZeroLines record, which the core
// executes as one cache-line store per 64 B, plus the loop overhead.
func (t *Tracer) ZeroRange(pa mem.PAddr, bytes uint64) {
	lines := bytes / mem.CacheLineBytes
	if lines == 0 {
		return
	}
	t.emit(isa.Inst{Op: isa.OpZeroLines, Count: uint32(lines), PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(lines)
	t.memStat(lines)
	t.ALU(uint32(lines)) // loop counter + address generation
}

// CopyRange records copying bytes from src to dst (khugepaged collapse,
// swap-in fill, CoW) as one isa.OpCopyLines/isa.OpCopyDst pair, which
// the core executes as a load and a store per 64 B cache line, plus the
// loop overhead.
func (t *Tracer) CopyRange(dst, src mem.PAddr, bytes uint64) {
	lines := bytes / mem.CacheLineBytes
	if lines == 0 {
		return
	}
	t.emit(isa.Inst{Op: isa.OpCopyLines, Count: uint32(lines), PC: t.pc, Addr: uint64(src), Phys: true})
	t.emit(isa.Inst{Op: isa.OpCopyDst, Count: uint32(lines), PC: t.pc, Addr: uint64(dst), Phys: true})
	t.bumpPC(2 * lines)
	t.memStat(2 * lines)
	t.ALU(uint32(lines))
}

// TouchObject records a read-modify access pattern over a kernel object:
// reads of loads cache lines and writes of stores cache lines at pa.
func (t *Tracer) TouchObject(pa mem.PAddr, loads, stores int) {
	for i := 0; i < loads; i++ {
		t.Load(pa + mem.PAddr(i*mem.CacheLineBytes))
	}
	for i := 0; i < stores; i++ {
		t.Store(pa + mem.PAddr(i*mem.CacheLineBytes))
	}
}

// Stats returns per-routine statistics sorted by name.
func (t *Tracer) Stats() []NamedRoutineStat {
	out := make([]NamedRoutineStat, 0, len(t.stats))
	for name, r := range t.stats {
		out = append(out, NamedRoutineStat{Name: name, RoutineStat: r.RoutineStat})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedRoutineStat pairs a routine name with its statistics.
type NamedRoutineStat struct {
	Name string
	RoutineStat
}

// Interface checks.
var _ KernelMem = (*Tracer)(nil)

// KernelMem is the narrow interface kernel data structures use to report
// their memory accesses; Tracer implements it.
type KernelMem interface {
	Load(pa mem.PAddr)
	Store(pa mem.PAddr)
	ALU(n uint32)
}

// NopMem discards recorded accesses; used for functional-only operations
// (e.g., engine-internal bookkeeping that must not be charged).
type NopMem struct{}

// Load implements KernelMem.
func (NopMem) Load(mem.PAddr) {}

// Store implements KernelMem.
func (NopMem) Store(mem.PAddr) {}

// ALU implements KernelMem.
func (NopMem) ALU(uint32) {}
