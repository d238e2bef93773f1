package phys

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// fragOff leaves memory unfragmented; the other targets are passed to
// Fragment.
const fragOff = -1

// liveRange is one live allocation the differential driver may free.
type liveRange struct{ base, pages uint64 }

// diffRun drives a Mem and a refMem through the same op stream and
// checks, after every op, that they return the same frames and agree on
// the counters and candidate-stack lengths; every checkEvery ops and at
// the end it compares them in full (check). used is the free-set
// oracle: bit p set = page p handed out and not yet freed.
type diffRun struct {
	t    testing.TB
	m    *Mem
	r    *refMem
	used []uint64
	live []liveRange
	ops  int
}

const checkEvery = 64

// newDiffRun starts a differential run on fresh memories of totalBytes.
func newDiffRun(t testing.TB, totalBytes uint64) *diffRun {
	d := &diffRun{t: t, m: New(totalBytes), r: newRef(totalBytes)}
	d.used = make([]uint64, len(d.r.bitmap))
	d.check()
	return d
}

// fragment runs Fragment on both memories, unless frag is fragOff.
// Fragment's pages become live single frames, so frees reach them.
func (d *diffRun) fragment(frag float64, seed uint64) {
	if frag == fragOff {
		return
	}
	d.m.Fragment(frag, seed)
	d.r.Fragment(frag, seed)
	for w, word := range d.r.bitmap {
		taken := ^word &^ d.used[w]
		d.used[w] |= taken
		for ; taken != 0; taken &= taken - 1 {
			d.live = append(d.live, liveRange{uint64(w)<<6 + uint64(bits.TrailingZeros64(taken)), 1})
		}
	}
	d.check()
}

// step runs one op whose kind and arguments come from draw, which
// returns a value in [0, n).
func (d *diffRun) step(draw func(n uint64) uint64) {
	d.ops++
	switch k := draw(16); {
	case k < 4:
		a, aok := d.m.Alloc4K()
		b, bok := d.r.Alloc4K()
		d.took("Alloc4K", a, 1, aok, b, 1, bok)
	case k < 6:
		a, aok := d.m.Alloc2M()
		b, bok := d.r.Alloc2M()
		d.took("Alloc2M", a, pagesPer2M, aok, b, pagesPer2M, bok)
	case k < 8:
		pages := 1 + draw(2*pagesPer2M)
		if draw(8) == 0 {
			pages = 1 + draw(d.m.totalPages)
		}
		align := uint64(1) << draw(11)
		if draw(16) == 0 {
			pages, align = pagesPer1G, pagesPer1G
		}
		a, aok := d.m.AllocContig(pages, align)
		b, bok := d.r.AllocContig(pages, align)
		d.took(fmt.Sprintf("AllocContig(%d, %d)", pages, align), a, pages, aok, b, pages, bok)
	case k < 9:
		minPages, maxPages := draw(64), draw(4*pagesPer2M)
		a, an, aok := d.m.AllocLargestRange(minPages, maxPages)
		b, bn, bok := d.r.AllocLargestRange(minPages, maxPages)
		d.took(fmt.Sprintf("AllocLargestRange(%d, %d)", minPages, maxPages), a, an, aok, b, bn, bok)
	default:
		if len(d.live) == 0 {
			break
		}
		i := draw(uint64(len(d.live)))
		s := d.live[i]
		d.live[i] = d.live[len(d.live)-1]
		d.live = d.live[:len(d.live)-1]
		if k >= 13 { // one frame of it; the rest stays live
			off := draw(s.pages)
			for _, rest := range []liveRange{{s.base, off}, {s.base + off + 1, s.pages - off - 1}} {
				if rest.pages > 0 {
					d.live = append(d.live, rest)
				}
			}
			s = liveRange{s.base + off, 1}
		}
		d.m.Free(pageAddr(s.base), s.pages)
		d.r.Free(pageAddr(s.base), s.pages)
		for p := s.base; p < s.base+s.pages; p++ {
			d.used[p>>6] &^= 1 << (p & 63)
		}
	}
	d.agree()
	if d.ops%checkEvery == 0 {
		d.check()
	}
}

// took compares one allocation's results and enters the frames into the
// free-set oracle.
func (d *diffRun) took(op string, a mem.PAddr, an uint64, aok bool, b mem.PAddr, bn uint64, bok bool) {
	d.t.Helper()
	if a != b || an != bn || aok != bok {
		d.t.Fatalf("op %d %s: bitmap allocator gave (%#x, %d, %v), extent maps (%#x, %d, %v)",
			d.ops, op, a, an, aok, b, bn, bok)
	}
	if !aok || an == 0 {
		return
	}
	base := uint64(a) >> 12
	for p := base; p < base+an; p++ {
		if d.used[p>>6]>>(p&63)&1 == 1 {
			d.t.Fatalf("op %d %s: frame %#x handed out twice", d.ops, op, pageAddr(p))
		}
		d.used[p>>6] |= 1 << (p & 63)
	}
	d.live = append(d.live, liveRange{base, an})
}

// agree is the per-op comparison.
func (d *diffRun) agree() {
	d.t.Helper()
	m, r := d.m, d.r
	if m.FreePages() != r.freePages || m.Free2MBlocks() != r.free2M ||
		len(m.smallStack) != len(r.smallStack) || len(m.largeStack) != len(r.largeStack) {
		d.t.Fatalf("op %d: free pages %d/%d, free 2M %d/%d, stacks %d+%d/%d+%d (bitmap allocator/extent maps)",
			d.ops, m.FreePages(), r.freePages, m.Free2MBlocks(), r.free2M,
			len(m.smallStack), len(m.largeStack), len(r.smallStack), len(r.largeStack))
	}
}

// check is the full comparison: both candidate stacks entry by entry,
// the bitmaps, every reference extent a maximal bitmap run and every run
// an extent, and the free-set oracle — the free bitmap is the complement
// of the handed-out frames, free + used = total, and Free2MBlocks counts
// the aligned blocks with no frame handed out.
func (d *diffRun) check() {
	d.t.Helper()
	m, r := d.m, d.r
	d.agree()
	if !slices.Equal(m.smallStack, r.smallStack) || !slices.Equal(m.largeStack, r.largeStack) {
		d.t.Fatalf("op %d: candidate stacks differ:\nsmall %v\n  ref %v\nlarge %v\n  ref %v",
			d.ops, m.smallStack, r.smallStack, m.largeStack, r.largeStack)
	}
	if !slices.Equal(m.bitmap, r.bitmap) {
		d.t.Fatalf("op %d: free-page bitmaps differ", d.ops)
	}
	var usedPages, freeBlocks, blockUsed uint64
	for w, u := range d.used {
		if m.bitmap[w] != ^u {
			d.t.Fatalf("op %d: bitmap word %d = %#x, handed-out frames say %#x", d.ops, w, m.bitmap[w], ^u)
		}
		usedPages += uint64(bits.OnesCount64(u))
		blockUsed |= u
		if w%8 == 7 { // last word of a 2 MB block
			if blockUsed == 0 {
				freeBlocks++
			}
			blockUsed = 0
		}
	}
	if m.FreePages()+usedPages != m.TotalPages() {
		d.t.Fatalf("op %d: %d free + %d used != %d total", d.ops, m.FreePages(), usedPages, m.TotalPages())
	}
	if m.Free2MBlocks() != freeBlocks {
		d.t.Fatalf("op %d: Free2MBlocks = %d, %d aligned blocks have no frame handed out", d.ops, m.Free2MBlocks(), freeBlocks)
	}
	for base, pages := range r.free {
		end := base + pages
		if !m.rangeFree(base, end) || (base > 0 && m.pageFree(base-1)) || (end < m.totalPages && m.pageFree(end)) {
			d.t.Fatalf("op %d: extent [%d, %d) is not a maximal free run", d.ops, base, end)
		}
	}
	runs := 0
	for range m.runs {
		runs++
	}
	if runs != len(r.free) {
		d.t.Fatalf("op %d: %d free runs, %d extents", d.ops, runs, len(r.free))
	}
}

// TestBitmapMatchesMaps holds the bitmap allocator to the extent-map
// allocator it replaced on 20k mixed ops per memory size and
// fragmentation target, from fresh memory and, in the /pre cases, from
// memory that 40 ops left holding pages when Fragment runs.
func TestBitmapMatchesMaps(t *testing.T) {
	ops := 20_000
	if testing.Short() {
		ops = 4_000
	}
	for _, size := range []uint64{64 * mem.MB, 256 * mem.MB, 2 * mem.GB} {
		for i, frag := range []float64{fragOff, 0, 0.2, 0.5, 0.9} {
			for _, pre := range []int{0, 40} {
				name := fmt.Sprintf("%dMB/frag%v", size/mem.MB, frag)
				if pre > 0 {
					if frag == fragOff {
						continue
					}
					name += "/pre"
				}
				t.Run(name, func(t *testing.T) {
					seed := size/mem.MB + uint64(i)
					d := newDiffRun(t, size)
					preRng, rng := xrand.New(^seed), xrand.New(seed)
					for range pre {
						d.step(preRng.Uint64n)
					}
					d.fragment(frag, seed)
					for range ops {
						d.step(rng.Uint64n)
					}
					d.check()
				})
			}
		}
	}
}

// FuzzPhysAllocator runs the differential check on op streams read from
// the fuzz input: the first two bytes pick the memory size, the
// fragmentation target and how many ops run before Fragment (0-51),
// each later 4-byte group one draw.
func FuzzPhysAllocator(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte("\x01\x02 four-kilobyte pages, two-megabyte blocks, contiguous ranges"))
	rng := xrand.New(5)
	for i := range 4 {
		seed := make([]byte, 2+4*200*(i+1))
		for j := range seed {
			seed[j] = byte(rng.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		size := []uint64{4 * mem.MB, 16 * mem.MB, 64 * mem.MB}[data[0]%3]
		frag := []float64{fragOff, 0, 0.2, 0.5, 0.9}[data[1]%5]
		in := data[2:]
		draw := func(n uint64) uint64 {
			var b [4]byte
			in = in[copy(b[:], in):]
			return uint64(binary.LittleEndian.Uint32(b[:])) % n
		}
		d := newDiffRun(t, size)
		for range data[1] / 5 {
			d.step(draw)
		}
		d.fragment(frag, 1)
		for len(in) > 0 {
			d.step(draw)
		}
		d.check()
	})
}
