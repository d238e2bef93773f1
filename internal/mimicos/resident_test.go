package mimicos

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
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
