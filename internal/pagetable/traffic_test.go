package pagetable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/xrand"
)

// trafficLog is a recording instrument.KernelMem: every kernel access
// and every walk step is folded into one running hash, so two runs of
// the same op sequence agree only if they made the same accesses in
// the same order.
type trafficLog struct{ h hash.Hash }

func (l *trafficLog) put(tag byte, v uint64) {
	var b [9]byte
	b[0] = tag
	binary.LittleEndian.PutUint64(b[1:], v)
	l.h.Write(b[:])
}

func (l *trafficLog) Load(pa mem.PAddr)  { l.put('L', uint64(pa)) }
func (l *trafficLog) Store(pa mem.PAddr) { l.put('S', uint64(pa)) }
func (l *trafficLog) ALU(n uint32)       { l.put('A', uint64(n)) }

// walk records every step of a hardware walk of va and its outcome.
func (l *trafficLog) walk(pt PageTable, va mem.VAddr) {
	w := pt.Walk(va)
	for _, s := range w.Steps[:w.NSteps] {
		l.put('W', uint64(s.PA))
		l.put('l', uint64(s.Level))
	}
	found := uint64(0)
	if w.Found {
		found = 1
	}
	l.put('F', found)
	l.put('E', uint64(w.Entry.Frame))
}

// echTraffic drives ECH through 4K inserts past an elastic resize, walks
// and removes during the gradual migration, walks and removes against a
// 2M table that was never inserted into, and finally 2M inserts.
func echTraffic(l *trafficLog) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	pt := NewECH(alloc)
	rng := xrand.New(0xEC4)
	// Before any insert: every probe misses in both tables.
	for i := 0; i < 16; i++ {
		va := mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		l.walk(pt, va)
		pt.Remove(va, l)
	}
	// Exceed 8K slots/way × 4 ways × 0.6, so the 4K table resizes and
	// migrates a few entries per insert from then on.
	const n = 24000
	vas := make([]mem.VAddr, n)
	for i := range vas {
		vas[i] = mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		pt.Insert(vas[i], Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, l)
		if i%97 == 0 {
			l.walk(pt, vas[i])
			l.walk(pt, vas[i]^0x1000)
		}
		if i%211 == 0 && i > 0 {
			pt.Remove(vas[i/2], l)
		}
		if i%307 == 0 {
			pt.Update(vas[i], Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true, Dirty: true}, l)
		}
	}
	for i := 0; i < n; i += 13 {
		l.walk(pt, vas[i])
	}
	// 2M inserts, walks and removes.
	for i := uint64(0); i < 64; i++ {
		va := mem.VAddr(0x40_0000_0000 + i*2*mem.MB)
		pt.Insert(va, Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l)
		l.walk(pt, va+0x1234)
		if i%3 == 0 {
			pt.Remove(va, l)
			l.walk(pt, va)
		}
	}
	l.put('R', pt.Resizes())
	l.put('M', pt.MappedPages())
	l.put('K', pt.tables[0].Kicks)
	l.put('G', pt.tables[0].Migrations)
	// The allocator's state after the sequence.
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
}

// htTraffic drives a small HT into long chains of overflow groups, then
// removes, re-inserts into the freed slots and walks.
func htTraffic(l *trafficLog) {
	alloc := phys.NewSlab(phys.New(512 * mem.MB))
	pt := NewHT(alloc, 64*mem.KB)
	rng := xrand.New(0x47)
	const n = 12000
	vas := make([]mem.VAddr, n)
	for i := range vas {
		vas[i] = mem.VAddr(rng.Uint64n(1<<36)) &^ 0xfff
		pt.Insert(vas[i], Entry{Frame: mem.PAddr(i+1) << 12, Size: mem.Page4K, Present: true}, l)
		if i%89 == 0 {
			l.walk(pt, vas[i])
		}
	}
	for i := 0; i < n; i += 3 {
		pt.Remove(vas[i], l)
	}
	for i := 0; i < n; i += 6 {
		pt.Insert(vas[i]^0x4000_0000, Entry{Frame: mem.PAddr(i+7) << 12, Size: mem.Page4K, Present: true}, l)
		pt.Update(vas[i+1], Entry{Frame: mem.PAddr(i+9) << 12, Size: mem.Page4K, Present: true, Dirty: true}, l)
	}
	for i := 0; i < n; i += 7 {
		l.walk(pt, vas[i])
	}
	for i := uint64(0); i < 32; i++ {
		va := mem.VAddr(0x40_0000_0000 + i*2*mem.MB)
		pt.Insert(va, Entry{Frame: mem.PAddr(0x8000_0000 + i*2*mem.MB), Size: mem.Page2M, Present: true}, l)
		l.walk(pt, va+0x5000)
	}
	l.put('M', pt.MappedPages())
	l.put('O', pt.sub[0].OverflowNodes)
	l.put('H', pt.sub[0].ChainHops)
	fp, _ := alloc.AllocFrame()
	l.put('P', uint64(fp))
}

// TestPageTableKernelTrafficPinned pins the simulated memory traffic of
// the hashed page tables: the kernel loads, stores and ALU charges of
// their updates and the step addresses of their hardware walks. A
// change to how the host stores the tables (lazy slot arrays, slot
// layout, node arenas) must leave every digest unchanged.
func TestPageTableKernelTrafficPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*trafficLog)
		want string
	}{
		{"ech", echTraffic, "b57ba63b928bdd10b6c7a648af98ecef9425c73757e87e1499c0766e495854c3"},
		{"ht", htTraffic, "003e28fccb4aa87909de81b26771c3392340fe40464d212b49223af2779ed3a8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := &trafficLog{h: sha256.New()}
			tc.run(l)
			if got := hex.EncodeToString(l.h.Sum(nil)); got != tc.want {
				t.Errorf("kernel traffic digest = %s, want %s", got, tc.want)
			}
		})
	}
}
