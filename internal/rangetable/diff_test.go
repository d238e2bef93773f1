package rangetable

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/instrument"
	"repro/internal/mem"
)

// kop is one recorded kernel-memory operation.
type kop struct {
	kind byte // 'L'oad, 'S'tore or 'A'LU
	v    uint64
}

// recMem records the kernel-memory operations charged to it, in order.
type recMem struct{ ops []kop }

func (m *recMem) Load(pa mem.PAddr)  { m.ops = append(m.ops, kop{'L', uint64(pa)}) }
func (m *recMem) Store(pa mem.PAddr) { m.ops = append(m.ops, kop{'S', uint64(pa)}) }
func (m *recMem) ALU(n uint32)       { m.ops = append(m.ops, kop{'A', uint64(n)}) }

// insertRMM and insertMidgard charge an insert the way the table's two
// callers do: EagerPolicy.reserveRanges stores the slot's leaf and
// charges 32 ALU, Kernel.Mmap stores line i of the node region and
// charges 48.
func insertRMM(t *Table, r Range, k instrument.KernelMem) {
	i := t.Insert(r, k)
	k.Store(t.LeafPA(i))
	k.ALU(32)
}

func insertMidgard(t *Table, r Range, k instrument.KernelMem) {
	i := t.Insert(r, k)
	k.Store(t.Root() + mem.PAddr(i*64))
	k.ALU(48)
}

// diffRangeTable decodes data into a sequence of inserts, removes and
// finds over a 1,024-page window, applies it to a Table and to the
// table it replaced (RMM's when data[0] is even, Midgard's when odd),
// and fails on the first op whose result, walk steps or recorded
// kernel-memory sequence differs.
func diffRangeTable(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	const nodeBase = 0x10_0000
	midgard := data[0]&1 == 1
	data = data[1:]
	tb := New(nodeBase)
	rmm := newRefTable(nodeBase)
	space := newRefSpace(nodeBase)
	var got, want recMem
	for n := 0; len(data) >= 3; n, data = n+1, data[3:] {
		page := mem.VAddr(uint64(data[0]>>3&3)<<8|uint64(data[1])) << 12
		arg := data[2]
		switch data[0] % 8 {
		case 0, 1, 2, 3: // insert a range of 1..16 pages
			end := page + mem.VAddr(arg%16+1)<<12
			if midgard {
				v := space.AddVMA(page, end, &want)
				insertMidgard(tb, Range{VStart: page, VEnd: end, Base: mem.PAddr(v.MBase)}, &got)
			} else {
				base := mem.PAddr(arg) << 21
				rmm.Insert(refRange{VStart: page, VEnd: end, PBase: base}, &want)
				insertRMM(tb, Range{VStart: page, VEnd: end, Base: base}, &got)
			}
		case 4: // remove [page, page + 1..32 pages)
			end := page + mem.VAddr(arg%32+1)<<12
			var wantN int
			if midgard {
				wantN = space.RemoveVMA(page, end, &want)
			} else {
				wantN = rmm.Remove(page, end, &want)
			}
			if gotN := tb.Remove(page, end, &got); gotN != wantN {
				t.Fatalf("op %d: remove [%#x, %#x) = %d, reference %d", n, page, end, gotN, wantN)
			}
		default: // find, with and without walk steps
			va := page + mem.VAddr(arg)<<4
			var gotSteps, wantSteps []mem.PAddr
			var wantR Range
			var wantOK bool
			if midgard {
				v, ok := space.Find(va, &wantSteps)
				wantR, wantOK = Range{VStart: v.VStart, VEnd: v.VEnd, Base: mem.PAddr(v.MBase)}, ok
			} else {
				r, ok := rmm.Find(va, &wantSteps)
				wantR, wantOK = Range{VStart: r.VStart, VEnd: r.VEnd, Base: r.PBase}, ok
			}
			r, ok := tb.Find(va, &gotSteps)
			if r != wantR || ok != wantOK || !slices.Equal(gotSteps, wantSteps) {
				t.Fatalf("op %d: find(%#x) = %+v %v steps %x, reference %+v %v steps %x",
					n, va, r, ok, gotSteps, wantR, wantOK, wantSteps)
			}
			if r, ok := tb.Find(va, nil); r != wantR || ok != wantOK {
				t.Fatalf("op %d: find(%#x) without steps = %+v %v, reference %+v %v", n, va, r, ok, wantR, wantOK)
			}
		}
		if !slices.Equal(got.ops, want.ops) {
			t.Fatalf("op %d: kernel-memory ops %v, reference %v", n, got.ops, want.ops)
		}
	}
}

// TestTableMatchesReference runs diffRangeTable over random op
// sequences long enough for the B-tree to reach three and four levels.
func TestTableMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 45))
			data := make([]byte, 1+3*3000)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			data[0] = byte(seed) // alternate RMM and Midgard
			for i := 1; i < 1+3*600; i += 3 {
				data[i] &^= 7 // 600 inserts first: a four-level tree
			}
			diffRangeTable(t, data)
		})
	}
}

// FuzzRangeTable holds Table to the RMM and Midgard tables it replaced
// on arbitrary op sequences.
//
//	go test -run '^$' -fuzz FuzzRangeTable -fuzztime 30s ./internal/rangetable
func FuzzRangeTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 4, 2, 7, 3, 1, 200, 2, 0, 40})
	f.Add([]byte{1, 0, 1, 3, 4, 2, 7, 3, 1, 200, 2, 0, 40, 1, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) { diffRangeTable(t, data) })
}
