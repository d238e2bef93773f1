package workloads

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/mem"
	"repro/internal/mimicos"
)

// Params configures workload construction. The zero value resolves to
// the library defaults (DefaultScale, DefaultLongIters), so Params{}
// built workloads behave exactly like the reference catalog.
//
// Construction reads no mutable package state — the deprecated
// Scale/LongIters globals are gone — so concurrent constructions with
// different parameters (e.g. two parallel sweeps at different scales)
// are race-free by design.
type Params struct {
	// Scale shrinks the paper's footprints (50–100 GB) to
	// simulator-friendly sizes while preserving the
	// footprint-to-TLB-reach ratios that drive MPKI. All catalog sizes
	// are expressed at Scale=1. 0 means DefaultScale.
	Scale float64

	// LongIters is the number of iterate passes long-running workloads
	// make over their data. Real long-running executions amortise their
	// build phase over hours; raising this approaches that regime.
	// 0 means DefaultLongIters.
	LongIters int
}

// Library default construction parameters (the values behind
// zero-valued Params fields).
const (
	DefaultScale     = 1.0
	DefaultLongIters = 4
)

// resolve fills zero fields with the library defaults. Constructors
// call it once, up front, so a workload captures its parameters at
// construction time.
func (p Params) resolve() Params {
	if p.Scale == 0 {
		p.Scale = DefaultScale
	}
	if p.LongIters == 0 {
		p.LongIters = DefaultLongIters
	}
	return p
}

func (p Params) sz(bytes uint64) uint64 {
	v := uint64(float64(bytes) * p.Scale)
	if v < 2*mem.MB {
		v = 2 * mem.MB
	}
	return mem.AlignUp(v, 2*mem.MB)
}

// graph builds a GraphBIG-style workload: a large anonymous region
// (vertex+edge arrays) walked with a mix of sequential and irregular
// accesses after a first-touch build phase.
func graph(p Params, name string, footprint uint64, randFrac float64, aluPer uint32, chase bool, smallVMAs int) *Workload {
	w := &Workload{name: name, class: LongRunning, footprint: footprint}
	w.setup = func(w *Workload, k *mimicos.Kernel, pid int) {
		w.bases["data"] = k.Mmap(pid, footprint, mimicos.MmapFlags{Anon: true})
		// Auxiliary allocations (runtime, buffers). BC's census (Fig. 18)
		// is modelled by its large smallVMAs count.
		for i := 0; i < smallVMAs; i++ {
			n := fmt.Sprintf("aux%d", i)
			w.bases[n] = k.Mmap(pid, smallVMASize(p, i), mimicos.MmapFlags{Anon: true})
		}
	}
	w.program = func(w *Workload) []Step {
		data := w.Base("data")
		randOps := uint64(float64(footprint/64) / 2)
		steps := []Step{
			// Build: construct the graph, writing every line (faults on
			// first touch of each page, app-side initialisation after).
			{Kind: StepTouch, Base: data, Size: footprint, Stride: 64, ALUPer: 2, PC: 0x400100},
			// Iterate: sequential frontier scans + irregular neighbour
			// accesses, repeated.
		}
		kind := StepRand
		if chase {
			kind = StepChase
		}
		for it := 0; it < p.LongIters; it++ {
			steps = append(steps,
				Step{Kind: StepSeq, Base: data, Size: footprint / 4, Stride: 64,
					Count: uint64(float64(randOps) * (1 - randFrac)), ALUPer: aluPer, PC: 0x400200},
				Step{Kind: kind, Base: data, Size: footprint,
					Count: uint64(float64(randOps) * randFrac), ALUPer: aluPer, PC: 0x400300},
			)
			// Touch a few auxiliary VMAs each iteration so small-VMA
			// workloads exercise the frontend (Fig. 17's BC effect).
			for i := 0; i < 8 && i < len(w.bases)-1; i++ {
				aux := w.Base(fmt.Sprintf("aux%d", (it*8+i)%max(1, len(w.bases)-1)))
				steps = append(steps, Step{Kind: StepRand, Base: aux, Size: smallVMASize(p, it*8+i),
					Count: randOps / 64, ALUPer: aluPer, PC: 0x400400})
			}
		}
		return steps
	}
	return w
}

// smallVMASize reproduces Fig. 18's BC size distribution: most auxiliary
// VMAs are 4 KB, with a tail up to ~1 GB (scaled).
func smallVMASize(p Params, i int) uint64 {
	switch {
	case i%3 != 0: // ~2/3 of them tiny
		return 4 * mem.KB
	case i%9 == 0:
		return p.sz(8 * mem.MB)
	case i%6 == 0:
		return p.sz(2 * mem.MB)
	default:
		return 256 * mem.KB
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// hpc builds an XSBench/GUPS-style workload: random lookups over big
// tables with little locality.
func hpc(p Params, name string, footprint uint64, aluPer uint32, rmw bool) *Workload {
	w := &Workload{name: name, class: LongRunning, footprint: footprint}
	w.setup = func(w *Workload, k *mimicos.Kernel, pid int) {
		w.bases["data"] = k.Mmap(pid, footprint, mimicos.MmapFlags{Anon: true})
	}
	w.program = func(w *Workload) []Step {
		data := w.Base("data")
		ops := footprint / 64 / 2
		steps := []Step{
			{Kind: StepTouch, Base: data, Size: footprint, Stride: 64, ALUPer: 2, PC: 0x500100},
		}
		for it := 0; it < p.LongIters; it++ {
			steps = append(steps, Step{Kind: StepRand, Base: data, Size: footprint,
				Count: ops, ALUPer: aluPer, Store: rmw, PC: 0x500200})
		}
		return steps
	}
	return w
}

// faas builds a short-running Function-as-a-Service workload: allocate
// working buffers (first touch), a short compute burst, done. Allocation
// dominates (Fig. 1's short-running profile).
func faas(name string, footprint uint64, aluPerTouch uint32, computeOps uint64) *Workload {
	w := &Workload{name: name, class: ShortRunning, footprint: footprint}
	w.setup = func(w *Workload, k *mimicos.Kernel, pid int) {
		w.bases["in"] = k.Mmap(pid, footprint/2, mimicos.MmapFlags{File: true, FileID: 7})
		w.bases["work"] = k.Mmap(pid, footprint, mimicos.MmapFlags{Anon: true})
	}
	w.program = func(w *Workload) []Step {
		in, work := w.Base("in"), w.Base("work")
		return []Step{
			// Read the (page-cached) input.
			{Kind: StepSeq, Base: in, Size: footprint / 2, Stride: 64, Count: footprint / 2 / 64, ALUPer: 2, PC: 0x600100},
			// Allocate and fill the working set: the dominant phase.
			{Kind: StepTouch, Base: work, Size: footprint, Stride: 64, ALUPer: aluPerTouch / 4, PC: 0x600200},
			// Brief compute over the warm data.
			{Kind: StepSeq, Base: work, Size: footprint, Stride: 64, Count: computeOps, ALUPer: 6, PC: 0x600300},
		}
	}
	return w
}

// llm builds an LLM-inference workload (short-input/short-output per
// Table 5): file-backed weights streamed per token plus an anonymous KV
// cache that grows with every generated token — the §7.5 allocation
// stressor.
func llm(name string, weights, kv uint64, tokens int) *Workload {
	w := &Workload{name: name, class: ShortRunning, footprint: weights + kv}
	w.setup = func(w *Workload, k *mimicos.Kernel, pid int) {
		w.bases["weights"] = k.Mmap(pid, weights, mimicos.MmapFlags{File: true, FileID: 11})
		w.bases["kv"] = k.Mmap(pid, kv, mimicos.MmapFlags{Anon: true})
		w.bases["scratch"] = k.Mmap(pid, kv/2, mimicos.MmapFlags{Anon: true})
	}
	w.program = func(w *Workload) []Step {
		wts, kvb, scr := w.Base("weights"), w.Base("kv"), w.Base("scratch")
		perTok := kv / uint64(tokens)
		steps := []Step{
			{Kind: StepTouch, Base: scr, Size: kv / 2, Stride: 64, ALUPer: 2, PC: 0x700050},
		}
		for t := 0; t < tokens; t++ {
			steps = append(steps,
				// Stream a slice of the weights (page-cache backed).
				Step{Kind: StepSeq, Base: wts, Size: weights, Stride: 4 * mem.KB,
					Count: weights / (4 * mem.KB) / uint64(tokens), ALUPer: 24, PC: 0x700100},
				// Extend the KV cache: fresh pages → faults mid-run.
				Step{Kind: StepTouch, Base: kvb + mem.VAddr(uint64(t)*perTok), Size: perTok,
					Stride: 64, ALUPer: 3, PC: 0x700200},
				// Attention over the KV cache so far.
				Step{Kind: StepRand, Base: kvb, Size: perTok * uint64(t+1),
					Count: 256, ALUPer: 16, PC: 0x700300},
			)
		}
		return steps
	}
	return w
}

// image builds a short-running image/array kernel with strided traversal.
func image(name string, footprint uint64, stride uint64, passes int) *Workload {
	w := &Workload{name: name, class: ShortRunning, footprint: footprint}
	w.setup = func(w *Workload, k *mimicos.Kernel, pid int) {
		w.bases["src"] = k.Mmap(pid, footprint, mimicos.MmapFlags{Anon: true})
		w.bases["dst"] = k.Mmap(pid, footprint, mimicos.MmapFlags{Anon: true})
	}
	w.program = func(w *Workload) []Step {
		src, dst := w.Base("src"), w.Base("dst")
		steps := []Step{
			{Kind: StepTouch, Base: src, Size: footprint, Stride: 64, ALUPer: 2, PC: 0x800100},
			{Kind: StepTouch, Base: dst, Size: footprint, Stride: 64, ALUPer: 2, PC: 0x800200},
		}
		for p := 0; p < passes; p++ {
			steps = append(steps,
				Step{Kind: StepSeq, Base: src, Size: footprint, Stride: stride,
					Count: footprint / stride, ALUPer: 4, PC: 0x800300},
				Step{Kind: StepSeq, Base: dst, Size: footprint, Stride: 64,
					Count: footprint / stride, ALUPer: 2, Store: true, PC: 0x800400},
			)
		}
		return steps
	}
	return w
}

// StressWith builds one point of the §2 memory-intensity sweep (Fig. 3)
// with explicit construction parameters: intensity ∈ [0,1] scales both
// footprint and the memory-op share.
func StressWith(level int, maxLevels int, p Params) *Workload {
	p = p.resolve()
	frac := float64(level+1) / float64(maxLevels)
	footprint := p.sz(uint64(4*mem.MB + frac*float64(248*mem.MB)))
	aluPer := uint32(1 + (1-frac)*40)
	w := &Workload{name: fmt.Sprintf("stress-%02d", level), class: LongRunning, footprint: footprint}
	w.setup = func(w *Workload, k *mimicos.Kernel, pid int) {
		w.bases["data"] = k.Mmap(pid, footprint, mimicos.MmapFlags{Anon: true})
	}
	w.program = func(w *Workload) []Step {
		data := w.Base("data")
		return []Step{
			{Kind: StepTouch, Base: data, Size: footprint, Stride: 64, ALUPer: 2, PC: 0x900100},
			{Kind: StepRand, Base: data, Size: footprint, Count: footprint / 256, ALUPer: aluPer, PC: 0x900200},
		}
	}
	return w
}

// Stress is StressWith at the library defaults.
func Stress(level int, maxLevels int) *Workload {
	return StressWith(level, maxLevels, Params{})
}

// Catalog -------------------------------------------------------------------

// suite is the group a catalog workload is listed in.
type suite uint8

const (
	suiteLong  suite = iota // Table 5's long-running suite
	suiteShort              // Table 5's short-running suite
	suiteExtra              // mix extras, outside the Table 5 suites
)

// entry is one catalog workload: its canonical name, the prefix of the
// suite-prefixed spelling it may also be requested under ("" if none),
// the suite that lists it and its constructor.
type entry struct {
	name   string
	prefix string
	suite  suite
	build  func(Params) *Workload
}

// catalog is every catalog workload, each suite in listing order: the
// long-running suite of Table 5 (the GraphBIG benchmarks, XSBench and
// GUPS randacc), the short-running suite, then the mix extras.
//
// Extras are workloads outside the Table 5 suites, reachable through
// ByNameWith (and therefore usable in multiprogrammed mixes and on the
// CLI) without changing the suites the paper-reproduction experiments
// iterate over.
var catalog = [...]entry{
	{"BC", "graphbig-", suiteLong, bc},
	{"BFS", "graphbig-", suiteLong, bfs},
	{"CC", "graphbig-", suiteLong, cc},
	{"GC", "graphbig-", suiteLong, gc},
	{"KC", "graphbig-", suiteLong, kc},
	{"PR", "graphbig-", suiteLong, pr},
	{"RND", "hpc-", suiteLong, rnd},
	{"SSSP", "graphbig-", suiteLong, sp},
	{"TC", "graphbig-", suiteLong, tc},
	{"XS", "hpc-", suiteLong, xs},

	{"JSON", "faas-", suiteShort, jsonW},
	{"AES", "faas-", suiteShort, aes},
	{"IMG-RES", "faas-", suiteShort, imgres},
	{"WCNT", "faas-", suiteShort, wcnt},
	{"DB", "faas-", suiteShort, db},
	{"Llama-2-7B", "llm-", suiteShort, llama},
	{"Bagel-2.8B", "llm-", suiteShort, bagel},
	{"Mistral-7B", "llm-", suiteShort, mistral},
	{"3D-Transp", "", suiteShort, transp3D},
	{"Hadamard", "", suiteShort, hadamard},
	{"2D-Sum", "", suiteShort, sum2D},

	{"SEQ", "", suiteExtra, seqW},
}

// index maps every spelling ByNameWith accepts, lowercased, to its
// entry: the canonical name ("bfs") and the suite-prefixed form
// ("graphbig-bfs"). A wrong-suite spelling like "faas-bfs" is not a key.
var index = func() map[string]*entry {
	m := make(map[string]*entry, 2*len(catalog))
	for i := range catalog {
		e := &catalog[i]
		can := strings.ToLower(e.name)
		m[can] = e
		if e.prefix != "" {
			m[e.prefix+can] = e
		}
	}
	return m
}()

// maxKey is the longest ASCII spelling lookup folds without allocating;
// every index key is shorter.
const maxKey = 32

// lookup returns the entry name selects, ignoring case, or nil. ASCII
// names are folded in a stack buffer; any other name goes through
// strings.ToLower, whose Unicode folding the index keys were made with.
func lookup(name string) *entry {
	if len(name) <= maxKey {
		var buf [maxKey]byte
		i := 0
		for ; i < len(name) && name[i] < utf8.RuneSelf; i++ {
			c := name[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if i == len(name) {
			return index[string(buf[:i])]
		}
	}
	return index[strings.ToLower(name)]
}

// Known reports whether name selects a catalog workload, under any
// spelling ByNameWith accepts, without building it.
func Known(name string) bool { return lookup(name) != nil }

// ByNameWith returns the named workload from either suite (or the mix
// extras), built with explicit parameters — the race-free lookup
// parallel sweeps use. Lookup is forgiving: it accepts the canonical
// Table 5 name ("BFS"), any case variant ("bfs"), and suite-prefixed
// spellings ("graphbig-bfs"). Only the matching workload is built.
func ByNameWith(name string, p Params) (*Workload, bool) {
	e := lookup(name)
	if e == nil {
		return nil, false
	}
	// The extras get p unresolved, so SEQ by name at Params{} is 2 MB
	// with no iterate passes while ExtraSuite lists it at 256 MB.
	// Resolving it changes results; the fix is ROADMAP item 9's.
	if e.suite != suiteExtra {
		p = p.resolve()
	}
	return e.build(p), true
}

// ByName returns the named workload from either suite (or the mix
// extras), built at the library defaults.
func ByName(name string) (*Workload, bool) { return ByNameWith(name, Params{}) }

// suiteWith builds the workloads suite s lists, in catalog order.
func suiteWith(s suite, p Params) []*Workload {
	p = p.resolve()
	ws := make([]*Workload, 0, len(catalog))
	for i := range catalog {
		if catalog[i].suite == s {
			ws = append(ws, catalog[i].build(p))
		}
	}
	return ws
}

// LongSuiteWith returns the long-running suite of Table 5 — the GraphBIG
// benchmarks, XSBench, and GUPS randacc — built with explicit parameters.
func LongSuiteWith(p Params) []*Workload { return suiteWith(suiteLong, p) }

// LongSuite is LongSuiteWith at the library defaults.
func LongSuite() []*Workload { return LongSuiteWith(Params{}) }

// ShortSuiteWith returns the short-running suite of Table 5, built with
// explicit parameters.
func ShortSuiteWith(p Params) []*Workload { return suiteWith(suiteShort, p) }

// ShortSuite is ShortSuiteWith at the library defaults.
func ShortSuite() []*Workload { return ShortSuiteWith(Params{}) }

// ExtraSuite returns the mix-extra workloads at the library defaults.
func ExtraSuite() []*Workload { return suiteWith(suiteExtra, Params{}) }

// MixWith builds one fresh workload per name (suites or extras, same
// forgiving matching as ByNameWith) — the construction path every
// multiprogrammed mix goes through.
func MixWith(names []string, p Params) ([]*Workload, error) {
	ws := make([]*Workload, len(names))
	for i, n := range names {
		w, ok := ByNameWith(n, p)
		if !ok {
			return nil, fmt.Errorf("workloads: unknown workload %q", n)
		}
		ws[i] = w
	}
	return ws, nil
}

// Long-running suite (GraphBIG, XSBench, GUPS; Table 5) ----------------------

// bc is GraphBIG betweenness centrality: one huge VMA plus ~147 small
// auxiliary VMAs (Fig. 18), highly irregular.
func bc(p Params) *Workload { return graph(p, "BC", p.sz(384*mem.MB), 0.75, 4, false, 147) }

// bfs is breadth-first search: frontier-driven, moderately irregular.
func bfs(p Params) *Workload { return graph(p, "BFS", p.sz(320*mem.MB), 0.65, 3, false, 6) }

// cc is connected components.
func cc(p Params) *Workload { return graph(p, "CC", p.sz(320*mem.MB), 0.6, 4, false, 6) }

// gc is graph coloring.
func gc(p Params) *Workload { return graph(p, "GC", p.sz(256*mem.MB), 0.6, 5, false, 6) }

// kc is k-core decomposition.
func kc(p Params) *Workload { return graph(p, "KC", p.sz(256*mem.MB), 0.7, 4, false, 6) }

// pr is PageRank: alternating sequential and random phases.
func pr(p Params) *Workload { return graph(p, "PR", p.sz(384*mem.MB), 0.55, 6, false, 6) }

// sp is single-source shortest path: pointer-chase heavy (the Fig. 3
// outlier).
func sp(p Params) *Workload { return graph(p, "SSSP", p.sz(320*mem.MB), 0.8, 3, true, 6) }

// tc is triangle counting.
func tc(p Params) *Workload { return graph(p, "TC", p.sz(256*mem.MB), 0.7, 5, false, 6) }

// xs is XSBench, the Monte Carlo neutron-transport kernel.
func xs(p Params) *Workload { return hpc(p, "XS", p.sz(320*mem.MB), 8, false) }

// rnd is GUPS randacc: random read-modify-writes, the worst-case fault
// and TLB stressor (used for Fig. 11's worst-case overheads).
func rnd(p Params) *Workload { return hpc(p, "RND", p.sz(256*mem.MB), 1, true) }

// Short-running suite (Table 5) ---------------------------------------------

// jsonW is FaaS JSON deserialisation.
func jsonW(p Params) *Workload { return faas("JSON", p.sz(24*mem.MB), 10, 64*1024) }

// aes is FaaS AES encryption.
func aes(p Params) *Workload { return faas("AES", p.sz(16*mem.MB), 18, 96*1024) }

// imgres is FaaS image resizing.
func imgres(p Params) *Workload { return faas("IMG-RES", p.sz(32*mem.MB), 8, 128*1024) }

// wcnt is FaaS word count.
func wcnt(p Params) *Workload { return faas("WCNT", p.sz(24*mem.MB), 6, 96*1024) }

// db is a FaaS database filter query.
func db(p Params) *Workload { return faas("DB", p.sz(32*mem.MB), 7, 128*1024) }

// llama models Llama-2-7B short-prompt inference (llama.cpp).
func llama(p Params) *Workload { return llm("Llama-2-7B", p.sz(96*mem.MB), p.sz(48*mem.MB), 12) }

// bagel models Bagel-2.8B inference.
func bagel(p Params) *Workload { return llm("Bagel-2.8B", p.sz(48*mem.MB), p.sz(32*mem.MB), 12) }

// mistral models Mistral-7B inference.
func mistral(p Params) *Workload { return llm("Mistral-7B", p.sz(96*mem.MB), p.sz(48*mem.MB), 12) }

// transp3D is the 3D matrix transposition kernel.
func transp3D(p Params) *Workload {
	return image("3D-Transp", p.sz(24*mem.MB), 4*mem.KB+64, 2)
}

// hadamard is the 3D Hadamard product.
func hadamard(p Params) *Workload { return image("Hadamard", p.sz(24*mem.MB), 64, 2) }

// sum2D is the 2D matrix sum.
func sum2D(p Params) *Workload { return image("2D-Sum", p.sz(16*mem.MB), 64, 2) }

// Mix extras ----------------------------------------------------------------

// seqW builds "SEQ": a purely sequential streaming scan with high
// spatial locality — the TLB-friendly counterpoint to RND in
// multiprogrammed mixes, where the contrast makes ASID-retention and
// scheduling effects easy to read.
func seqW(p Params) *Workload {
	foot := p.sz(256 * mem.MB)
	w := &Workload{name: "SEQ", class: LongRunning, footprint: foot}
	w.setup = func(w *Workload, k *mimicos.Kernel, pid int) {
		w.bases["data"] = k.Mmap(pid, foot, mimicos.MmapFlags{Anon: true})
	}
	w.program = func(w *Workload) []Step {
		data := w.Base("data")
		steps := []Step{
			{Kind: StepTouch, Base: data, Size: foot, Stride: 64, ALUPer: 2, PC: 0xA00100},
		}
		for it := 0; it < p.LongIters; it++ {
			steps = append(steps, Step{Kind: StepSeq, Base: data, Size: foot, Stride: 64,
				Count: foot / 64 / 2, ALUPer: 4, PC: 0xA00200})
		}
		return steps
	}
	return w
}
