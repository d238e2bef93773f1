package mimicos

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/xrand"
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

func TestDropResidentSwapRemoves(t *testing.T) {
	p := &Process{residentIdx: make(map[mem.VAddr]int)}
	for _, va := range []mem.VAddr{0x1000, 0x2000, 0x3000} {
		p.addResident(residentPage{VA: va, Size: mem.Page4K, Frame: mem.PAddr(va)})
	}
	// Dropping the first entry moves the last one into its slot.
	p.dropResident(0x1000)
	if p.resident.len() != 2 {
		t.Fatalf("resident list holds %d entries after a drop, want 2", p.resident.len())
	}
	if rp := p.resident.at(0); rp.VA != 0x3000 || rp.Frame != 0x3000 {
		t.Fatalf("slot 0 = %+v, want the moved last entry 0x3000", *rp)
	}
	if idx, ok := p.residentIdx[0x3000]; !ok || idx != 0 {
		t.Fatalf("moved entry indexed at %d (present %v), want 0", idx, ok)
	}
	if _, ok := p.residentIdx[0x1000]; ok {
		t.Fatal("dropped VA still indexed")
	}
	if *p.resident.at(2) != (residentPage{}) {
		t.Fatalf("vacated tail slot holds %+v", *p.resident.at(2))
	}
	// Dropping the last entry moves nothing; dropping an unknown VA is a no-op.
	p.dropResident(0x2000)
	p.dropResident(0x9000)
	if p.resident.len() != 1 || p.residentIdx[0x3000] != 0 || len(p.residentIdx) != 1 {
		t.Fatalf("after dropping the tail: len %d, index %v", p.resident.len(), p.residentIdx)
	}
	// A re-fault of a dropped VA appends.
	p.addResident(residentPage{VA: 0x1000, Size: mem.Page4K})
	if idx := p.residentIdx[0x1000]; idx != 1 || p.resident.len() != 2 {
		t.Fatalf("re-added VA at position %d of %d, want 1 of 2", idx, p.resident.len())
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
		// In-place overwrite, swap-removes, and a re-add after a drop.
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

// checkResident requires p's resident list to hold exactly its
// resident pages: one entry per index key, each key naming its entry's
// position, and every buddy-owned entry mapped present in the page
// table.
func checkResident(t *testing.T, k *Kernel, p *Process, when string) {
	t.Helper()
	if n, m := p.resident.len(), len(p.residentIdx); n != m {
		t.Fatalf("%s: resident list holds %d entries, index %d keys", when, n, m)
	}
	for i := 0; i < p.resident.len(); i++ {
		rp := p.resident.at(i)
		if idx, ok := p.residentIdx[rp.VA]; !ok || idx != i {
			t.Fatalf("%s: entry %d (%#x) indexed at %d (present %v)", when, i, rp.VA, idx, ok)
		}
		if rp.RestSeg {
			continue
		}
		if e, ok := p.PT.Lookup(k.keyForNoCharge(p, rp.VA)); !ok || !e.Present {
			t.Fatalf("%s: entry %d (%#x) is not mapped present (%+v, found %v)", when, i, rp.VA, e, ok)
		}
	}
}

// TestResidentChurnKeepsListExact drives a working set four times DRAM
// (eight times what stays below the watermark) through demotion,
// promotion, swap-out and swap-in, and checks after every fault that
// the resident list holds exactly the resident pages: a page that
// leaves DRAM leaves the list. An unmap of half the set and the exit
// must keep (and finally empty) it too.
func TestResidentChurnKeepsListExact(t *testing.T) {
	k := New(Config{
		PhysBytes:     8 * mem.MB,
		PTKind:        PTRadix,
		SwapBytes:     64 * mem.MB,
		SwapThreshold: 0.5,
		Tiers:         oneTier(2 * mem.MB),
	}, nil)
	const pages = 8192 // 32 MB
	p, err := k.CreateProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	base := k.Mmap(1, pages*4096, MmapFlags{Anon: true})
	r := xrand.New(7)
	for i := 0; i < 3*pages; i++ {
		va := base + mem.VAddr(r.Uint64n(pages)<<12)
		if e, ok := p.PT.Lookup(k.keyForNoCharge(p, va)); ok && e.Present {
			continue
		}
		if out := k.HandlePageFault(1, va, true, 0); !out.OK {
			t.Fatalf("fault %d at %#x failed", i, va)
		}
		checkResident(t, k, p, fmt.Sprintf("fault %d at %#x", i, va))
	}
	if st := k.Stats(); st.Demotions == 0 || st.Promotions == 0 || st.SwapOuts == 0 || st.SwapIns == 0 {
		t.Fatalf("churn missed a path: %+v", *st)
	}
	k.Munmap(1, base, pages/2*4096)
	checkResident(t, k, p, "after munmap")
	for i := 0; i < p.resident.len(); i++ {
		if va := p.resident.at(i).VA; va < base+pages/2*4096 {
			t.Fatalf("entry %d (%#x) survived the unmap of its range", i, va)
		}
	}
	k.ExitProcess(1)
	if p.resident.len() != 0 || len(p.residentIdx) != 0 {
		t.Fatalf("exit left %d entries, %d index keys", p.resident.len(), len(p.residentIdx))
	}
}

// FuzzResidentList drives a pooled process's resident list and index
// with random adds, overwrites, drops (single pages and runs that
// shrink the list across chunk boundaries) and recycle-then-reuse,
// against a map oracle. After every op the list must hold exactly the
// oracle's pages, each at the position the index names, and every slot
// past the end must read as zero.
func FuzzResidentList(f *testing.F) {
	f.Add([]byte{3, 0, 0, 3, 1, 0, 3, 2, 0, 3, 3, 0, 5, 0, 0, 5, 1, 0, 4, 0, 0, 3, 0, 7})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 1, 0, 0, 1, 2, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages, run = 3000, 300
		pool := recycle.New()
		newProc := func() *Process {
			return &Process{
				resident:    residentList{pool: pool},
				residentIdx: recycle.Map[mem.VAddr, int](pool, residentIdxKey),
			}
		}
		p, oracle := newProc(), map[mem.VAddr]residentPage{}
		add := func(rp residentPage) {
			p.addResident(rp)
			oracle[rp.VA] = rp
		}
		drop := func(va mem.VAddr) {
			p.dropResident(va)
			delete(oracle, va)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			pg := (uint64(ops[i+1])<<8 | uint64(ops[i+2])) % pages
			va := mem.VAddr(pg << 12)
			switch ops[i] % 6 {
			case 0:
				add(residentPage{VA: va, Frame: mem.PAddr(i + 1), Heat: uint32(i), Size: mem.Page4K})
			case 1:
				add(residentPage{VA: va, Frame: mem.PAddr(i + 1), Size: mem.Page2M, RestSeg: true})
			case 2:
				drop(va)
			case 3:
				for j := uint64(0); j < run; j++ {
					add(residentPage{VA: mem.VAddr((pg + j) % pages << 12), Frame: mem.PAddr(i + 1), Size: mem.Page4K})
				}
			case 4:
				p.recycle(pool)
				p, oracle = newProc(), map[mem.VAddr]residentPage{}
			case 5:
				for j := uint64(0); j < run; j++ {
					drop(mem.VAddr((pg + j) % pages << 12))
				}
			}
			if n := p.resident.len(); n != len(oracle) || n != len(p.residentIdx) {
				t.Fatalf("op %d: list holds %d entries, index %d, oracle %d", i/3, n, len(p.residentIdx), len(oracle))
			}
			for j := 0; j < p.resident.len(); j++ {
				rp := *p.resident.at(j)
				if idx, ok := p.residentIdx[rp.VA]; !ok || idx != j {
					t.Fatalf("op %d: entry %d (%#x) indexed at %d (present %v)", i/3, j, rp.VA, idx, ok)
				}
				if want := oracle[rp.VA]; rp != want {
					t.Fatalf("op %d: entry %d = %+v, oracle %+v", i/3, j, rp, want)
				}
			}
			for j := p.resident.len(); j < len(p.resident.chunks)*residentChunk; j++ {
				if rp := *p.resident.at(j); rp != (residentPage{}) {
					t.Fatalf("op %d: slot %d past the end holds %+v", i/3, j, rp)
				}
			}
		}
	})
}
