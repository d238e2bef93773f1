package instrument

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/xrand"
)

func TestTracerRecordsRoutine(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	exit := tr.Enter("do_page_fault")
	tr.ALU(100)
	tr.Load(0x1000)
	tr.Store(0x2000)
	tr.Atomic(0x3000)
	exit()
	s := tr.Take()
	if got := s.Instructions(); got != 105 { // 100 ALU + 3 mem + 2 call/ret branches
		t.Fatalf("instructions = %d", got)
	}
	if got := s.MemOps(); got != 3 {
		t.Fatalf("mem ops = %d", got)
	}
	sts := tr.Stats()
	if len(sts) != 1 || sts[0].Calls != 1 || sts[0].MemOps != 3 {
		t.Fatalf("routine stats: %+v", sts)
	}
}

func TestTracerBeginResets(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.ALU(10)
	tr.Begin()
	if len(tr.Take()) != 0 {
		t.Fatal("Begin did not reset the stream")
	}
	if tr.TotalInsts() != 10 {
		t.Fatalf("lifetime count = %d", tr.TotalInsts())
	}
}

func TestZeroRangeEmitsLineStores(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.ZeroRange(0x10000, 2*mem.MB)
	stores := uint64(0)
	for _, in := range tr.Take().Expand() {
		if in.Op == isa.OpStore {
			stores += in.N()
		}
	}
	if stores != 2*mem.MB/64 {
		t.Fatalf("zeroing stores = %d, want %d", stores, 2*mem.MB/64)
	}
}

func TestCopyRangePairsLoadsStores(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.CopyRange(0x2000, 0x1000, 4096)
	var loads, stores uint64
	for _, in := range tr.Take().Expand() {
		switch in.Op {
		case isa.OpLoad:
			loads += in.N()
		case isa.OpStore:
			stores += in.N()
		}
	}
	if loads != 64 || stores != 64 {
		t.Fatalf("copy = %d loads / %d stores", loads, stores)
	}
}

func TestDelaySplitsLargeValues(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.Delay(3 << 31)
	var total uint64
	for _, in := range tr.Take() {
		if in.Op != isa.OpDelay {
			t.Fatalf("unexpected op %v", in.Op)
		}
		total += in.N()
	}
	if total != 3<<31 {
		t.Fatalf("delay total = %d", total)
	}
}

func TestRoutinePCsDistinct(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	e1 := tr.Enter("alloc_pages")
	tr.ALU(1)
	e1()
	e2 := tr.Enter("swap_out")
	tr.ALU(1)
	e2()
	s := tr.Take()
	if s[0].PC == s[3].PC {
		t.Fatal("distinct routines share a code region")
	}
}

// TestEnterExitZeroAllocs pins the allocation-free kernel event path:
// a nested Enter/exit pair, once both routines have been seen, must not
// allocate. Every MimicOS routine on every fault runs through it.
func TestEnterExitZeroAllocs(t *testing.T) {
	tr := NewTracer()
	nested := func() {
		tr.Begin()
		outer := tr.Enter("__do_page_fault")
		inner := tr.Enter("alloc_pages")
		tr.Store(0x1000)
		inner()
		outer()
	}
	nested() // first sight of each name creates its stats entry
	if avg := testing.AllocsPerRun(100, nested); avg != 0 {
		t.Fatalf("nested Enter/exit allocates %.1f times per pair (want 0)", avg)
	}
}

// closureEnter is the reference Enter: the exit closure captures the
// caller's PC, the entry instruction count and the routine's stats,
// instead of reading them back from the frame stack.
func closureEnter(t *Tracer, name string) func() {
	r := t.stats[name]
	if r == nil {
		r = &routine{}
		t.stats[name] = r
	}
	r.Calls++
	prevPC := t.pc
	start := t.insts
	t.pc = 0xffff_8000_0000_0000 | (xrand.Hash64(hashName(name), 0x05) & 0x3fff_ffff << 14)
	t.frames = append(t.frames, frame{start: start, pc: prevPC, r: r})
	t.emit(isa.Inst{Op: isa.OpBranch, Count: 1, PC: t.pc, Phys: true}) // call
	return func() {
		t.emit(isa.Inst{Op: isa.OpBranch, Count: 1, PC: t.pc, Phys: true}) // ret
		r.Insts += t.insts - start
		t.pc = prevPC
		t.frames = t.frames[:len(t.frames)-1]
	}
}

// attributionScript drives a tracer through three kernel events using
// enter to open routines: nesting three deep, sibling routines, re-entry
// of the same name (nested and sequential), and exits run by defer on an
// early return. It returns a copy of each event's stream.
func attributionScript(tr *Tracer, enter func(string) func()) []isa.Stream {
	var events []isa.Stream
	take := func() { events = append(events, append(isa.Stream(nil), tr.Take()...)) }

	// lookup returns early on a hit; its exits run from defer.
	lookup := func(hit bool) bool {
		defer enter("find_vma")()
		tr.Load(0x4000)
		if hit {
			tr.ALU(3)
			return true
		}
		exit := enter("vma_walk")
		defer exit()
		tr.Branch(2)
		tr.Load(0x4040)
		return false
	}

	// Event 1: a 4K fault, three deep, with siblings under the top.
	tr.Begin()
	fault := enter("__do_page_fault")
	tr.ALU(140)
	tr.Atomic(0x1000)
	lookup(true)
	anon := enter("do_anonymous_page")
	alloc := enter("alloc_pages")
	tr.Load(0x2000)
	tr.Store(0x2008)
	alloc()
	clear := enter("clear_page")
	tr.ZeroRange(0x10000, 4096)
	clear()
	anon()
	tr.Magic()
	fault()
	take()

	// Event 2: re-entry of the same name, nested and back to back, a
	// miss through lookup's deferred exits, and device time.
	tr.Begin()
	fault = enter("__do_page_fault")
	lookup(false)
	for i := 0; i < 3; i++ {
		alloc = enter("alloc_pages")
		tr.ALU(uint32(10 + i))
		if i == 1 {
			again := enter("alloc_pages") // recursive re-entry
			tr.Store(0x3000)
			again()
		}
		alloc()
	}
	swap := enter("swap_out")
	tr.CopyRange(0x5000, 0x6000, 256)
	tr.Delay(5000)
	swap()
	fault()
	take()

	// Event 3: a routine entered outside any other.
	tr.Begin()
	tick := enter("scheduler_tick")
	tr.TouchObject(0x7000, 2, 1)
	tick()
	take()
	return events
}

// TestEnterMatchesClosureReference replays one script through Enter and
// through the closure-based reference: the recorded streams and the
// per-routine statistics must be identical.
func TestEnterMatchesClosureReference(t *testing.T) {
	got := NewTracer()
	gotEvents := attributionScript(got, got.Enter)
	want := NewTracer()
	wantEvents := attributionScript(want, func(name string) func() { return closureEnter(want, name) })

	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("event count %d, want %d", len(gotEvents), len(wantEvents))
	}
	for e := range wantEvents {
		g, w := gotEvents[e], wantEvents[e]
		if len(g) != len(w) {
			t.Fatalf("event %d: %d records, want %d", e, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("event %d record %d: got %+v, want %+v", e, i, g[i], w[i])
			}
		}
	}
	if gs, ws := got.Stats(), want.Stats(); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("routine stats differ:\n got %+v\nwant %+v", gs, ws)
	}
	if got.TotalInsts() != want.TotalInsts() || got.pc != want.pc || len(got.frames) != 0 {
		t.Fatalf("tracer state differs after the script: insts %d/%d pc %#x/%#x depth %d",
			got.TotalInsts(), want.TotalInsts(), got.pc, want.pc, len(got.frames))
	}
	if len(got.Stats()) != 8 {
		t.Fatalf("script covered %d routines, want 8", len(got.Stats()))
	}
}

// TestRangeRecordsExpandToLineRecords records one event twice: with
// ZeroRange and CopyRange, and with the per-line loops they replace
// (one Store per line; one Load and one Store per line). The range
// form must be a handful of records whose expansion is exactly the
// per-line stream, with the same routine statistics and final PC.
func TestRangeRecordsExpandToLineRecords(t *testing.T) {
	script := func(tr *Tracer, zero func(mem.PAddr, uint64), copyLines func(dst, src mem.PAddr, bytes uint64)) isa.Stream {
		tr.Begin()
		exit := tr.Enter("clear_page")
		tr.ALU(3)
		zero(0x10000, 4096)
		zero(0x20000, 32) // under one line: nothing
		inner := tr.Enter("copy_page")
		copyLines(0x30000, 0x40000, 256)
		inner()
		tr.Store(0x50000)
		exit()
		return append(isa.Stream(nil), tr.Take()...)
	}
	got := NewTracer()
	rangeForm := script(got, got.ZeroRange, got.CopyRange)
	want := NewTracer()
	lineForm := script(want,
		func(pa mem.PAddr, bytes uint64) {
			lines := bytes / mem.CacheLineBytes
			for i := uint64(0); i < lines; i++ {
				want.Store(pa + mem.PAddr(i*mem.CacheLineBytes))
			}
			want.ALU(uint32(lines))
		},
		func(dst, src mem.PAddr, bytes uint64) {
			lines := bytes / mem.CacheLineBytes
			for i := uint64(0); i < lines; i++ {
				off := mem.PAddr(i * mem.CacheLineBytes)
				want.Load(src + off)
				want.Store(dst + off)
			}
			want.ALU(uint32(lines))
		})

	if len(rangeForm) != 11 {
		t.Errorf("range form is %d records, want 11", len(rangeForm))
	}
	if !reflect.DeepEqual(rangeForm.Expand(), lineForm) {
		t.Fatalf("expansion differs from the per-line stream:\n got %+v\nwant %+v", rangeForm.Expand(), lineForm)
	}
	if rangeForm.Instructions() != lineForm.Instructions() || rangeForm.MemOps() != lineForm.MemOps() {
		t.Fatalf("counts: range %d insts / %d mem ops, per-line %d / %d",
			rangeForm.Instructions(), rangeForm.MemOps(), lineForm.Instructions(), lineForm.MemOps())
	}
	if gs, ws := got.Stats(), want.Stats(); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("routine stats differ:\n got %+v\nwant %+v", gs, ws)
	}
	if got.TotalInsts() != want.TotalInsts() || got.pc != want.pc {
		t.Fatalf("tracer state: insts %d/%d pc %#x/%#x", got.TotalInsts(), want.TotalInsts(), got.pc, want.pc)
	}
}
