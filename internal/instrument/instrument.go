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
// The stream length is path-dependent by construction: a page fault that
// zeroes a 2 MB page records 32768 cache-line stores, while a fault
// served from the zero-page pool records a handful — reproducing the
// heavy-tailed minor-fault latency distributions of Fig. 2.
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
	r     *routine // resolved once at Enter; memStat runs per kernel mem-op
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	t := &Tracer{stats: make(map[string]*routine)}
	t.exitFn = t.exit
	return t
}

// Begin resets the tracer for a new kernel event.
func (t *Tracer) Begin() {
	t.stream = t.stream[:0]
	t.insts = 0
}

// Adopt replaces the tracer's stream storage with buf, truncated. The
// buffer grows to the largest single kernel event (a 2 MB ZeroRange is
// 32 Ki records), so recycling it across kernels avoids regrowing —
// and re-copying — megabytes per simulation. Contents are irrelevant:
// every record below len is overwritten by emit before a reader sees
// it, and isa.Inst holds no pointers.
func (t *Tracer) Adopt(buf isa.Stream) {
	t.stream = buf[:0]
}

// Release surrenders the stream storage for recycling. The tracer must
// not be used afterwards.
func (t *Tracer) Release() isa.Stream {
	buf := t.stream
	t.stream = nil
	return buf
}

// Take returns the recorded stream for the completed event. The returned
// slice is valid until the next Begin; callers that retain it must copy.
func (t *Tracer) Take() isa.Stream { return t.stream }

// StreamInsts returns the dynamic instruction count of the current stream.
func (t *Tracer) StreamInsts() uint64 { return t.insts }

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
	t.memStat()
}

// Store records a kernel store at physical address pa.
func (t *Tracer) Store(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpStore, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
	t.memStat()
}

// Atomic records a locked RMW at pa (spinlock acquisition, refcounts);
// these are the §4.3 synchronisation overheads of the multithreaded
// kernel.
func (t *Tracer) Atomic(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpAtomic, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
	t.memStat()
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

func (t *Tracer) memStat() {
	if n := len(t.frames); n > 0 {
		t.frames[n-1].r.MemOps++
	}
}

// ZeroRange records clearing [pa, pa+bytes): one cache-line store per
// 64 B plus loop overhead — the dominant cost of huge-page allocation.
func (t *Tracer) ZeroRange(pa mem.PAddr, bytes uint64) {
	lines := bytes / mem.CacheLineBytes
	for i := uint64(0); i < lines; i++ {
		t.Store(pa + mem.PAddr(i*mem.CacheLineBytes))
	}
	t.ALU(uint32(lines)) // loop counter + address generation
}

// CopyRange records copying bytes from src to dst, one cache line at a
// time (khugepaged collapse, swap-in fill, CoW).
func (t *Tracer) CopyRange(dst, src mem.PAddr, bytes uint64) {
	lines := bytes / mem.CacheLineBytes
	for i := uint64(0); i < lines; i++ {
		off := mem.PAddr(i * mem.CacheLineBytes)
		t.Load(src + off)
		t.Store(dst + off)
	}
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
