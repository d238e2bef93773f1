package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"

	virtuoso "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
	"repro/internal/recycle"
	"repro/internal/tier"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// drills times the public functions of single layers on operation
// streams taken from the workloads: the exec-xs instruction and address
// streams, and a v2 trace of XS like the one replay-grid records. Every
// drill runs under recover; one that errors or panics counts as failed
// and leaves its metrics out.
type drills struct {
	seed uint64
	sz   sizes
	dir  string
	cfg  virtuoso.Config // the exec-xs system

	vas     []mem.VAddr // a window of the exec-xs data addresses
	mmuInst uint64      // app instructions up to the end of its first quarter
	pas     []mem.PAddr // the window translated on the radix system
	recs    []isa.Inst  // the decoded v2 trace
	hdr     trace.Header
	v1, v2  string

	out               map[string]float64
	attempted, failed int
	errs              []string
	took              []string // per-drill wall time, for the log
}

func runDrills(seed uint64, sz sizes, dir string) *drills {
	d := &drills{seed: seed, sz: sz, dir: dir, cfg: execConfig(seed, sz), out: map[string]float64{}}
	d.cfg.MaxAppInsts = 0
	d.do("workloads", d.workloads)
	d.do("trace", d.trace)
	d.do("core", d.core)
	d.do("cpu", d.cpu)
	d.do("tlb", d.tlb)
	d.do("mmu", d.mmu)
	d.do("cache", d.cache)
	d.do("dram", d.dram)
	d.do("mimicos", d.mimicos)
	d.do("tier", d.tier)
	return d
}

func (d *drills) do(name string, f func() error) {
	d.attempted++
	t := time.Now()
	err := safely(f)
	d.took = append(d.took, fmt.Sprintf("%s %.1fs", name, time.Since(t).Seconds()))
	if err != nil {
		d.failed++
		d.errs = append(d.errs, fmt.Sprintf("drill %s: %v", name, err))
	}
}

func (d *drills) set(name string, v float64) { d.out[name] = v }

// perUnit runs f reps times and returns the median time per unit, in
// nanoseconds, where one call of f performs units units of work.
func perUnit(reps, units int, f func()) float64 {
	xs := make([]float64, reps)
	for r := range xs {
		t := time.Now()
		f()
		xs[r] = float64(time.Since(t).Nanoseconds()) / float64(units)
	}
	return median(xs)
}

// drain reads src to exhaustion in engine-sized batches.
func drain(src isa.Source) int {
	buf := make([]isa.Inst, batchLen)
	n := 0
	for {
		k := isa.FillBatch(src, buf)
		if k == 0 {
			return n
		}
		n += k
	}
}

// workloads drains the XS generator and keeps a window of its data
// addresses from the random phase that follows the first-touch sweep.
func (d *drills) workloads() error {
	w, err := virtuoso.NamedWorkloadWith("XS", virtuoso.WorkloadParams{Scale: 0.1})
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(d.cfg)
	if err != nil {
		return err
	}
	sys.Prepare(w)
	srcSeed := d.cfg.Seed ^ 0xF00D // the engine's generator seed
	skip := int(w.FootprintBytes() / 64)
	var in isa.Inst
	var insts uint64
	src := w.Source(srcSeed)
	for mems := 0; src.Next(&in); {
		insts += in.N()
		if !in.Op.HasMemOperand() {
			continue
		}
		if mems++; mems > skip {
			d.vas = append(d.vas, mem.VAddr(in.Addr))
			if len(d.vas) == d.sz.drillRecs/4 {
				d.mmuInst = insts
			}
			if len(d.vas) == d.sz.drillRecs {
				break
			}
		}
	}
	if len(d.vas) < d.sz.drillRecs {
		return fmt.Errorf("XS stream has %d window addresses, want %d", len(d.vas), d.sz.drillRecs)
	}
	var recs int
	ns := perUnit(d.sz.drillReps, 1, func() { recs = drain(w.Source(srcSeed)) })
	d.set("workloads.gen_ns_per_inst", ns/float64(recs))
	return nil
}

// trace records XS as v2, converts the records to a v1 gzip file, and
// times writing, opening and every decode route.
func (d *drills) trace() error {
	d.v2 = filepath.Join(d.dir, "drill.trc")
	d.v1 = filepath.Join(d.dir, "drill-v1.trc.gz")
	cfg := d.cfg
	cfg.MaxAppInsts = d.sz.recordMax
	sess, err := virtuoso.Open(virtuoso.WithConfig(cfg), virtuoso.WithWorkloadScale(0.1), virtuoso.WithWorkload("XS"))
	if err != nil {
		return err
	}
	if _, _, err := sess.Record(d.v2); err != nil {
		return err
	}
	if d.hdr, err = trace.ReadHeader(d.v2); err != nil {
		return err
	}
	src, err := trace.OpenSource(d.v2)
	if err != nil {
		return err
	}
	var in isa.Inst
	for src.Next(&in) {
		d.recs = append(d.recs, in)
	}
	closeSource(src)
	if err := writeRecords(d.v1, d.hdr, d.recs); err != nil {
		return err
	}
	n := len(d.recs)
	reps := d.sz.drillReps

	d.set("trace.write_ns_per_rec", perUnit(reps, n, func() {
		w := trace.NewWriterV2(io.Discard)
		w.WriteHeader(d.hdr)
		for _, in := range d.recs {
			w.WriteInst(in)
		}
		w.Close()
	}))
	var derr error
	check := func(got int) {
		if got != n && derr == nil {
			derr = fmt.Errorf("decoded %d records, want %d", got, n)
		}
	}
	buf := make([]isa.Inst, batchLen)
	openFirst := func(name, path string) {
		d.set(name, 1e-9*perUnit(reps, 1, func() {
			src, err := trace.OpenReplaySource(path)
			if err != nil {
				derr = err
				return
			}
			isa.FillBatch(src, buf)
			closeSource(src)
		}))
	}
	openFirst("trace.open_s", d.v2)
	openFirst("trace.v1_open_s", d.v1)
	route := func(name string, open func(string) (isa.Source, error), path string) {
		d.set(name, perUnit(reps, n, func() {
			src, err := open(path)
			if err != nil {
				derr = err
				return
			}
			check(drain(src))
			closeSource(src)
		}))
	}
	route("trace.v2_inline_ns_per_rec", trace.OpenSource, d.v2)
	route("trace.v2_parallel_ns_per_rec", trace.OpenReplaySource, d.v2)
	route("trace.v1_prefetch_ns_per_rec", trace.OpenReplaySource, d.v1)

	// The shared store is tried on the v2 file first. Opening a v2
	// trace larger than one block fails there today; each failure is
	// counted and the cold/warm timings fall back to the v1 file.
	fails := 0
	path := d.v2
	for r := 0; r < reps; r++ {
		src, err := trace.NewShared(0).Open(d.v2)
		if err != nil {
			fails++
			path = d.v1
			continue
		}
		closeSource(src)
	}
	d.set("trace.shared_fail", float64(fails))
	var store *trace.Shared
	d.set("trace.shared_cold_ns_per_rec", perUnit(reps, n, func() {
		store = trace.NewShared(0)
		src, err := store.Open(path)
		if err != nil {
			derr = err
			return
		}
		check(drain(src))
		closeSource(src)
	}))
	route("trace.shared_warm_ns_per_rec", store.Open, path)
	return derr
}

// writeRecords writes recs as a v1 trace with the gzip envelope.
func writeRecords(path string, hdr trace.Header, recs []isa.Inst) error {
	w, err := trace.CreateV1(path)
	if err != nil {
		return err
	}
	if err := w.WriteHeader(hdr); err != nil {
		w.Close()
		return err
	}
	for _, in := range recs {
		if err := w.WriteInst(in); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// core times System construction, fresh and from a warmed pool.
func (d *drills) core() error {
	n := 10 * d.sz.drillReps
	build := func(pool *recycle.Pool) (us, allocs float64, err error) {
		ts := make([]float64, n)
		as := make([]float64, n)
		for i := range ts {
			m0 := readMem()
			t := time.Now()
			sys, err := core.NewSystemPooled(d.cfg, pool)
			ts[i] = float64(time.Since(t).Nanoseconds()) / 1e3
			as[i] = float64(readMem().since(m0).mallocs)
			if err != nil {
				return 0, 0, err
			}
			sys.Recycle(pool)
		}
		return median(ts), median(as), nil
	}
	us, allocs, err := build(nil)
	if err != nil {
		return err
	}
	d.set("core.build_fresh_us", us)
	d.set("core.build_allocs_fresh", allocs)
	pool := recycle.New()
	if _, _, err := build(pool); err != nil { // warm the pool
		return err
	}
	if us, allocs, err = build(pool); err != nil {
		return err
	}
	d.set("core.build_pooled_us", us)
	d.set("core.build_allocs_pooled", allocs)
	return nil
}

// cpu times Core.Run over single ALU instructions fetched from the
// mapped text segment.
func (d *drills) cpu() error {
	w, err := virtuoso.NamedWorkloadWith("XS", virtuoso.WorkloadParams{Scale: 0.1})
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(d.cfg)
	if err != nil {
		return err
	}
	sys.Prepare(w)
	n := 4 * d.sz.drillRecs
	in := isa.Inst{Op: isa.OpALU, Count: 1, PC: uint64(core.TextSegBase)}
	d.set("cpu.alu_ns_per_inst", perUnit(d.sz.drillReps, n, func() {
		for i := 0; i < n; i++ {
			sys.Core.Run(in)
		}
	}))
	return nil
}

// tlb times the scaled STLB: hits on a resident set, miss-then-insert
// on fresh pages, and the hit ratio of the exec-xs address window.
func (d *drills) tlb() error {
	mc := experiments.ScaledMMU()
	newTLB := func() *tlb.TLB { return tlb.New("stlb", mc.STLBEntries, mc.STLBWays, mc.STLBLat, mem.Page4K) }
	entry := func(va mem.VAddr) tlb.Entry {
		return tlb.Entry{VPN: mem.Page4K.VPN(va), Size: mem.Page4K, Frame: mem.PAddr(mem.Page4K.PageBase(va)), ASID: 1}
	}
	n := 4 * d.sz.drillRecs
	t := newTLB()
	const resident = 64
	for i := 0; i < resident; i++ {
		t.Insert(entry(mem.VAddr(i) << 12))
	}
	hits := 0
	d.set("tlb.lookup_hit_ns", perUnit(d.sz.drillReps, n, func() {
		hits = 0
		for i := 0; i < n; i++ {
			if _, ok := t.Lookup(mem.VAddr(i%resident)<<12, 1); ok {
				hits++
			}
		}
	}))
	if hits != n {
		return fmt.Errorf("resident lookups hit %d of %d", hits, n)
	}
	d.set("tlb.lookup_miss_insert_ns", perUnit(d.sz.drillReps, n, func() {
		t := newTLB()
		for i := 0; i < n; i++ {
			va := mem.VAddr(1<<32) + mem.VAddr(i)<<12
			if _, ok := t.Lookup(va, 1); !ok {
				t.Insert(entry(va))
			}
		}
	}))
	t = newTLB()
	hits = 0
	for _, va := range d.vas {
		if _, ok := t.Lookup(va, 1); ok {
			hits++
		} else {
			t.Insert(entry(va))
		}
	}
	d.set("tlb.hit_ratio", float64(hits)/float64(len(d.vas)))
	return nil
}

// mmu runs XS under buddy allocation up to the end of the first
// quarter of the address window on each design, then times
// MMU.Translate over that quarter (a TLB-missing stream) and, on
// radix, over one resident page.
func (d *drills) mmu() error {
	vas := d.vas[:len(d.vas)/4]
	for _, design := range []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignECH, virtuoso.DesignHDC, virtuoso.DesignHT} {
		cfg := d.cfg
		cfg.Design = design
		cfg.Policy = virtuoso.PolicyBuddy
		cfg.MaxAppInsts = d.mmuInst
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		w, err := virtuoso.NamedWorkloadWith("XS", virtuoso.WorkloadParams{Scale: 0.1})
		if err != nil {
			return err
		}
		sys.Run(w)
		now := sys.Core.Now()
		var faults int
		pas := make([]mem.PAddr, 0, len(vas))
		d.set("mmu.translate_walk_ns."+string(design), perUnit(d.sz.drillReps, len(vas), func() {
			faults = 0
			pas = pas[:0]
			for _, va := range vas {
				now += 50
				r := sys.MMU.Translate(va, false, now)
				if r.Fault {
					faults++
				}
				pas = append(pas, r.PA)
			}
		}))
		if faults > 0 {
			return fmt.Errorf("%s: %d window addresses unmapped", design, faults)
		}
		if design != virtuoso.DesignRadix {
			continue
		}
		d.pas = pas
		va := vas[0]
		n := 4 * d.sz.drillRecs
		d.set("mmu.translate_hit_ns", perUnit(d.sz.drillReps, n, func() {
			for i := 0; i < n; i++ {
				sys.MMU.Translate(va, false, now)
			}
		}))
	}
	return nil
}

// cache times the scaled hierarchy: L1D hits, accesses that miss to
// DRAM, and L1I fetch hits.
func (d *drills) cache() error {
	h := cache.NewHierarchy(d.cfg.CacheCfg, dram.NewController(d.cfg.DramCfg))
	n := 4 * d.sz.drillRecs
	const pc = 0x500200
	hot := mem.PAddr(0x1000_0000)
	var now uint64
	d.set("cache.access_l1_hit_ns", perUnit(d.sz.drillReps, n, func() {
		for i := 0; i < n; i++ {
			now += 4
			h.Access(hot, false, mem.ATData, pc, now)
		}
	}))
	// Lines scattered over 1 GiB: far beyond the LLC, no stride to
	// prefetch.
	misses := make([]mem.PAddr, d.sz.drillRecs)
	x := d.seed | 1
	for i := range misses {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		misses[i] = mem.PAddr(x%(1<<30)) &^ 63
	}
	l3 := h.L3.Stats()
	before := l3.Misses[mem.ATData]
	d.set("cache.access_llc_miss_ns", perUnit(d.sz.drillReps, len(misses), func() {
		for _, pa := range misses {
			now += 100
			h.Access(pa, false, mem.ATData, pc, now)
		}
	}))
	if got, want := l3.Misses[mem.ATData]-before, uint64(len(misses)*d.sz.drillReps)/2; got < want {
		return fmt.Errorf("scattered accesses missed the LLC %d times, want at least %d", got, want)
	}
	d.set("cache.fetch_instr_ns", perUnit(d.sz.drillReps, n, func() {
		for i := 0; i < n; i++ {
			now += 4
			h.FetchInstr(hot, now)
		}
	}))
	return nil
}

// dram times Controller.Access on the exec-xs window's physical lines:
// random accesses over a footprint far beyond the LLC, so nearly every
// one is an LLC miss.
func (d *drills) dram() error {
	if len(d.pas) == 0 {
		return fmt.Errorf("no physical address stream (mmu drill failed)")
	}
	var c *dram.Controller
	d.set("dram.access_ns", perUnit(d.sz.drillReps, len(d.pas), func() {
		c = dram.NewController(d.cfg.DramCfg)
		var now uint64
		for _, pa := range d.pas {
			now += 100
			c.Access(pa&^63, false, mem.ATData, now)
		}
	}))
	d.set("dram.row_hit_ratio", c.Stats().RowHitRate())
	return nil
}

// faultRun is one first-touch run: its costs per measured fault, and
// the system and region it left behind.
type faultRun struct {
	ns, allocs, kinsts float64
	faults             int
	sys                *core.System
	base               mem.VAddr
}

// touchRegion maps an anonymous region on a fresh system and
// first-touches it at stride, timing each HandlePageFault (and the
// stream hand-off the engine performs after it) from the first fault
// where measure returns true.
func touchRegion(cfg virtuoso.Config, region, stride uint64, measure func(k *mimicos.Kernel) bool) (faultRun, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return faultRun{}, err
	}
	k := sys.OS
	pid := sys.Proc.PID
	base := k.Mmap(pid, region, mimicos.MmapFlags{Anon: true})
	k.TakeStream()
	fr := faultRun{sys: sys, base: base}
	var spent time.Duration
	var m0 memMark
	var kinsts uint64
	for off := uint64(0); off < region; off += stride {
		on := measure(k)
		if on && fr.faults == 0 {
			m0 = readMem()
		}
		t := time.Now()
		out := k.HandlePageFault(pid, base+mem.VAddr(off), true, uint64(off))
		s := k.TakeStream()
		if on {
			spent += time.Since(t)
			kinsts += s.Instructions()
			fr.faults++
		}
		if !out.OK {
			return fr, fmt.Errorf("fault at +%#x failed", off)
		}
	}
	if fr.faults == 0 {
		return fr, fmt.Errorf("no fault reached the measured phase")
	}
	f := float64(fr.faults)
	fr.ns = float64(spent.Nanoseconds()) / f
	fr.allocs = float64(readMem().since(m0).mallocs) / f
	fr.kinsts = float64(kinsts) / f
	return fr, nil
}

// medianRuns repeats touchRegion and keeps the run with the median
// time per fault.
func medianRuns(reps int, cfg virtuoso.Config, region, stride uint64, measure func(*mimicos.Kernel) bool) (faultRun, error) {
	runs := make([]faultRun, 0, reps)
	for r := 0; r < reps; r++ {
		fr, err := touchRegion(cfg, region, stride, measure)
		if err != nil {
			return fr, err
		}
		runs = append(runs, fr)
	}
	best := runs[0]
	ns := make([]float64, len(runs))
	for i, fr := range runs {
		ns[i] = fr.ns
	}
	m := median(ns)
	for _, fr := range runs {
		if math.Abs(fr.ns-m) < math.Abs(best.ns-m) {
			best = fr
		}
	}
	return best, nil
}

func always(*mimicos.Kernel) bool { return true }

// faultReps is how many fresh systems each fault drill touches; each
// run is thousands of faults already.
const faultReps = 3

// mimicos times first-touch faults: 4K under buddy, 2M under THP, and
// 4K under flat memory pressure once reclaim swaps pages out.
func (d *drills) mimicos() error {
	reps := faultReps
	const region = 16 << 20
	bd := d.cfg
	bd.Policy = virtuoso.PolicyBuddy
	fr, err := medianRuns(reps, bd, region, 4<<10, always)
	if err != nil {
		return fmt.Errorf("4k: %w", err)
	}
	d.set("mimicos.fault_4k_ns", fr.ns)
	d.set("mimicos.allocs_per_fault.4k", fr.allocs)
	d.set("mimicos.kernel_insts_per_fault", fr.kinsts)

	thp := d.cfg
	thp.Policy = virtuoso.PolicyTHP
	if fr, err = medianRuns(reps, thp, 4*region, 2<<20, always); err != nil {
		return fmt.Errorf("2m: %w", err)
	}
	if huge := fr.sys.Proc.PT.MappedPages(); huge > uint64(fr.faults) {
		return fmt.Errorf("2m: %d faults mapped %d pages, want one 2M page each", fr.faults, huge)
	}
	d.set("mimicos.fault_2m_ns", fr.ns)
	d.set("mimicos.allocs_per_fault.2m", fr.allocs)

	press := pressured(bd, nil)
	swapping := func(k *mimicos.Kernel) bool { return k.Stats().SwapOuts > 0 }
	if fr, err = medianRuns(reps, press, 4*region, 4<<10, swapping); err != nil {
		return fmt.Errorf("swapout: %w", err)
	}
	d.set("mimicos.fault_swapout_ns", fr.ns)
	d.set("mimicos.allocs_per_fault.swapout", fr.allocs)
	return nil
}

// pressured shrinks DRAM to 24 MiB with swap behind it and the given
// slow tiers between.
func pressured(cfg virtuoso.Config, tiers []virtuoso.TierSpec) virtuoso.Config {
	cfg.OSCfg.PhysBytes = 24 << 20
	cfg.OSCfg.SwapBytes = 512 << 20
	cfg.OSCfg.SwapThreshold = 0.5
	cfg.OSCfg.Tiers = tiers
	return cfg
}

// tier times first-touch faults that demote under DRAM pressure onto
// roomy CXL+NVM tiers, re-touch faults that promote, and the Manager's
// bookkeeping operations.
func (d *drills) tier() error {
	reps := faultReps
	const region = 64 << 20
	cfg := d.cfg
	cfg.Policy = virtuoso.PolicyBuddy
	specs := []virtuoso.TierSpec{
		{Name: "cxl", Bytes: 64 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
		{Name: "nvm", Bytes: 128 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
	}
	cfg = pressured(cfg, specs)
	demoting := func(k *mimicos.Kernel) bool { return k.Stats().Demotions > 0 }
	fr, err := medianRuns(reps, cfg, region, 4<<10, demoting)
	if err != nil {
		return fmt.Errorf("demote: %w", err)
	}
	d.set("tier.fault_demote_ns", fr.ns)
	d.set("tier.allocs_per_fault", fr.allocs)

	// Re-touch the region from its cold end: every unmapped page there
	// lives in a slow tier, and its fault promotes it.
	k, pid, pt := fr.sys.OS, fr.sys.Proc.PID, fr.sys.Proc.PT
	var spent time.Duration
	promoted := 0
	for off := uint64(0); off < region; off += 4 << 10 {
		va := fr.base + mem.VAddr(off)
		if e, ok := pt.Lookup(va); ok && e.Present {
			continue
		}
		before := k.Stats().Promotions
		t := time.Now()
		out := k.HandlePageFault(pid, va, false, region+off)
		k.TakeStream()
		dt := time.Since(t)
		if !out.OK {
			return fmt.Errorf("promote: fault at +%#x failed", off)
		}
		if k.Stats().Promotions > before {
			spent += dt
			promoted++
		}
	}
	if promoted == 0 {
		return fmt.Errorf("promote: no re-touch promoted a page")
	}
	d.set("tier.fault_promote_ns", float64(spent.Nanoseconds())/float64(promoted))

	n := d.sz.drillRecs
	d.set("tier.manager_op_ns", perUnit(reps, 4*n, func() {
		m := tier.NewManager(specs, tier.NewHotCold())
		for i := 0; i < n; i++ {
			m.Insert(i&1, tier.Page{PID: 1, VA: mem.VAddr(i) << 12, Size: mem.Page4K})
		}
		for i := 0; i < n; i++ {
			m.Lookup(1, mem.VAddr(i)<<12)
		}
		for i := 0; i < n; i++ {
			m.PickVictim(i & 1)
		}
		for i := 0; i < n; i++ {
			m.Promote(1, mem.VAddr(i)<<12)
		}
	}))
	return nil
}

// safely runs f, turning a panic into an error.
func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 2048)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("panic: %v\n%s", r, buf)
		}
	}()
	return f()
}
