package mimicos

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/recycle"
)

// TestResidentPageSize guards the field order that packs a resident
// entry into 24 bytes; one is kept per mapped or promoted page.
func TestResidentPageSize(t *testing.T) {
	if n := unsafe.Sizeof(residentPage{}); n != 24 {
		t.Fatalf("residentPage is %d bytes, want 24", n)
	}
}

func TestResidentListAcrossChunks(t *testing.T) {
	var l residentList
	const n = 2*residentChunk + 2
	for i := 0; i < n; i++ {
		if got := l.push(residentPage{VA: mem.VAddr(i) << 12, Frame: mem.PAddr(i)}); got != i {
			t.Fatalf("push %d returned position %d", i, got)
		}
	}
	if l.len() != n {
		t.Fatalf("len = %d, want %d", l.len(), n)
	}
	if len(l.chunks) != 3 {
		t.Fatalf("%d chunks for %d entries, want 3", len(l.chunks), n)
	}
	for _, i := range []int{0, residentChunk - 1, residentChunk, 2*residentChunk + 1} {
		if rp := l.at(i); rp.VA != mem.VAddr(i)<<12 || rp.Frame != mem.PAddr(i) {
			t.Fatalf("at(%d) = %+v", i, *rp)
		}
	}
	// Growth must not move entries: a pointer taken before a push that
	// opens a new chunk still addresses the list's entry.
	first := l.at(0)
	for i := n; i < 3*residentChunk+1; i++ {
		l.push(residentPage{VA: mem.VAddr(i) << 12})
	}
	first.Heat = 7
	if l.at(0).Heat != 7 {
		t.Fatal("entry 0 moved when the list grew")
	}
}

func TestAddResidentOverwritesInPlace(t *testing.T) {
	p := &Process{residentIdx: make(map[mem.VAddr]int)}
	p.addResident(residentPage{VA: 0x1000, Size: mem.Page4K, Frame: 0x10})
	p.addResident(residentPage{VA: 0x2000, Size: mem.Page4K, Frame: 0x20})
	p.addResident(residentPage{VA: 0x1000, Size: mem.Page4K, Frame: 0x30, Heat: 5})
	if p.resident.len() != 2 {
		t.Fatalf("resident list holds %d entries, want 2", p.resident.len())
	}
	if idx := p.residentIdx[0x1000]; idx != 0 {
		t.Fatalf("VA 0x1000 moved to position %d", idx)
	}
	if rp := p.resident.at(0); rp.Frame != 0x30 || rp.Heat != 5 {
		t.Fatalf("entry 0 = %+v, want the overwriting mapping", *rp)
	}
}

func TestDropResidentMarksDead(t *testing.T) {
	p := &Process{residentIdx: make(map[mem.VAddr]int)}
	p.addResident(residentPage{VA: 0x1000, Size: mem.Page4K})
	p.addResident(residentPage{VA: 0x2000, Size: mem.Page4K})
	p.dropResident(0x1000)
	if !p.resident.at(0).Dead || p.resident.at(1).Dead {
		t.Fatalf("dead flags = %v, %v; want true, false", p.resident.at(0).Dead, p.resident.at(1).Dead)
	}
	if _, ok := p.residentIdx[0x1000]; ok {
		t.Fatal("dropped VA still indexed")
	}
	if p.resident.len() != 2 {
		t.Fatalf("drop changed the list length to %d", p.resident.len())
	}
	// A re-fault of the dropped VA appends a fresh entry.
	p.addResident(residentPage{VA: 0x1000, Size: mem.Page4K})
	if idx := p.residentIdx[0x1000]; idx != 2 || p.resident.at(2).Dead {
		t.Fatalf("re-added VA at position %d (dead %v), want a live entry at 2", idx, p.resident.at(idx).Dead)
	}
}

// TestResidentReuseMatchesFresh builds one process's resident list and
// index from a pool that a previous process recycled into, and another
// from fresh allocations, drives both through the same sequence, and
// requires them to agree on every position, entry and index key. The
// previous process leaves entries and keys the sequence never writes,
// so a chunk or map handed back unscrubbed shows up as a stale entry or
// a stale key.
func TestResidentReuseMatchesFresh(t *testing.T) {
	pool := recycle.New()
	newProc := func(pool *recycle.Pool) *Process {
		return &Process{
			resident:    residentList{pool: pool},
			residentIdx: recycle.Map[mem.VAddr, int](pool, residentIdxKey),
		}
	}
	prev := newProc(pool)
	for i := 0; i < 3*residentChunk+17; i++ {
		prev.addResident(residentPage{VA: mem.VAddr(0x9000_0000 + i<<12), Frame: mem.PAddr(i + 1), Heat: 9, Size: mem.Page4K, RestSeg: true})
	}
	prev.dropResident(0x9000_0000)
	prevChunks := map[*[residentChunk]residentPage]bool{}
	for _, c := range prev.resident.chunks {
		prevChunks[c] = true
	}
	prev.recycle(pool)

	reused, fresh := newProc(pool), newProc(nil)
	var posReused, posFresh []int
	seq := func(p *Process, pos *[]int) {
		for i := 0; i < 2*residentChunk+5; i++ {
			va := mem.VAddr(0x1000_0000 + i<<12)
			if i%3 == 0 {
				va = mem.VAddr(0x9000_0000 + i<<12) // a VA the previous process held
			}
			p.addResident(residentPage{VA: va, Frame: mem.PAddr(i + 100), Size: mem.Page4K})
			*pos = append(*pos, p.residentIdx[va])
		}
		// In-place overwrite, dead marking, and a re-add after a drop.
		p.addResident(residentPage{VA: 0x1000_1000, Frame: 0x77, Heat: 3, Size: mem.Page2M})
		p.dropResident(0x1000_2000)
		p.dropResident(0x9000_3000)
		p.addResident(residentPage{VA: 0x9000_3000, Frame: 0x88, Size: mem.Page4K})
		*pos = append(*pos, p.residentIdx[0x9000_3000])
	}
	seq(reused, &posReused)
	seq(fresh, &posFresh)

	for _, c := range reused.resident.chunks {
		if !prevChunks[c] {
			t.Fatal("reused process allocated a fresh chunk while the pool held recycled ones")
		}
	}
	if len(posReused) != len(posFresh) {
		t.Fatalf("%d positions reused, %d fresh", len(posReused), len(posFresh))
	}
	for i := range posFresh {
		if posReused[i] != posFresh[i] {
			t.Fatalf("step %d: reused position %d, fresh %d", i, posReused[i], posFresh[i])
		}
	}
	if reused.resident.len() != fresh.resident.len() {
		t.Fatalf("reused list holds %d entries, fresh %d", reused.resident.len(), fresh.resident.len())
	}
	for i := 0; i < fresh.resident.len(); i++ {
		if *reused.resident.at(i) != *fresh.resident.at(i) {
			t.Fatalf("entry %d: reused %+v, fresh %+v", i, *reused.resident.at(i), *fresh.resident.at(i))
		}
	}
	// Past the end, the reused chunk must read as zero, as the fresh one does.
	n := fresh.resident.len()
	for i := n; i < len(fresh.resident.chunks)*residentChunk; i++ {
		if *reused.resident.at(i) != (residentPage{}) {
			t.Fatalf("slot %d past the end holds stale %+v", i, *reused.resident.at(i))
		}
	}
	if len(reused.residentIdx) != len(fresh.residentIdx) {
		t.Fatalf("reused index holds %d keys, fresh %d", len(reused.residentIdx), len(fresh.residentIdx))
	}
	for va, idx := range fresh.residentIdx {
		if got, ok := reused.residentIdx[va]; !ok || got != idx {
			t.Fatalf("index[%#x]: reused %d (present %v), fresh %d", va, got, ok, idx)
		}
	}
	if _, ok := reused.residentIdx[0x9000_0000+mem.VAddr(3*residentChunk)<<12]; ok {
		t.Fatal("reused index holds a key only the previous process mapped")
	}
}
