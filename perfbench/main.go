// Command perfbench is the repository benchmark. It runs one named
// workload as a closed loop of operations through the public API — one
// op in flight at a time, back to back — for a fixed time, checks every
// op's simulated result, and prints one JSON result line.
//
//	perfbench --workload exec-xs --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace
// 1 it holds the per-layer metrics: spans from a traced run of the same
// op, the exact simulated counts, and the layer drills. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: exec-xs, replay-grid or os-pressure")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Float64("seconds", 10, "how long to run ops for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, counts and layer drills")
	short := fs.Bool("short", false, "small sizes, for the self-test")
	out := fs.String("out", defaultOut(), "directory for spans and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seed == 0 {
		fmt.Fprintln(stderr, "perfbench: --seed must be positive")
		return 2
	}
	sz := fullSizes
	if *short {
		sz = shortSizes
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(dir)
	b, err := newBench(*name, *seed, sz, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	h := &harness{b: b, deadline: time.Now().Add(time.Duration(*secs * float64(time.Second)))}
	var res result
	if *traced == 0 {
		res = h.endToEnd()
	} else {
		log := newSpanLog()
		res = h.perLayer(log, *seed, sz, dir)
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := log.write(spans); err != nil {
			h.fail(fmt.Errorf("writing spans: %w", err))
			res.Correct = false
		} else {
			fmt.Fprintln(stderr, "perfbench: spans written to", spans)
		}
	}
	for _, e := range h.errs {
		fmt.Fprintln(stderr, "perfbench:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: FAILED: an output check did not hold")
		return 1
	}
	return 0
}

// defaultOut is the build directory the benchmark script sets up.
func defaultOut() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// harness runs ops, checks their results and gathers measurements.
type harness struct {
	b        bench
	deadline time.Time

	attempted, failed int
	digest            string      // the first op's result
	counts            []simCounts // the first op's counters
	errs              []string
	ops               []opStat
}

// opStat is one successful untraced op's measurements.
type opStat struct {
	res      opResult
	wall     time.Duration
	mem      memMark
	heapPeak uint64
}

func (h *harness) fail(err error) {
	h.failed++
	h.errs = append(h.errs, err.Error())
}

// op runs one untraced op under recover and checks its result against
// the first op's. Failed points inside a successful op count too.
func (h *harness) op() (opStat, bool) {
	cleanHeap()
	heap := startHeapSampler()
	m0 := readMem()
	t0 := time.Now()
	var res opResult
	err := safely(func() error {
		var err error
		res, err = h.b.op()
		return err
	})
	wall := time.Since(t0)
	st := opStat{res: res, wall: wall, mem: readMem().since(m0), heapPeak: heap.finish()}
	h.attempted++
	if err == nil && res.failedPoints > 0 {
		err = fmt.Errorf("%d grid points failed", res.failedPoints)
	}
	if err == nil && h.digest == "" {
		h.digest, h.counts = res.digest, res.counts
	} else if err == nil && res.digest != h.digest {
		err = fmt.Errorf("result digest %s differs from the first op's %s", res.digest, h.digest)
	}
	if err != nil {
		h.fail(fmt.Errorf("op %d: %w", h.attempted, err))
		return st, false
	}
	return st, true
}

// loop runs and keeps ops until the deadline, at least min of them.
func (h *harness) loop(min int) {
	for i := 0; i < min || time.Now().Before(h.deadline); i++ {
		if st, ok := h.op(); ok {
			h.ops = append(h.ops, st)
		}
	}
}

// cleanHeap collects twice before an op, so that it starts with no
// garbage to sweep and with process-global sync.Pools empty: each op
// then allocates the same, whatever the op before it left behind.
func cleanHeap() {
	runtime.GC()
	runtime.GC()
}

// extraSetups times stand-alone set-up steps back to back after the
// warm-up op, up to setupSamples of them or setupBudget of time, so
// that setup_s is a median of many samples even when ops are long.
const (
	setupSamples = 50
	setupBudget  = 3 * time.Second
)

func (h *harness) extraSetups() []float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < setupSamples && time.Since(start) < setupBudget {
		var d time.Duration
		err := safely(func() error {
			var err error
			d, err = h.b.setup()
			return err
		})
		h.attempted++
		if err != nil {
			h.fail(fmt.Errorf("set-up %d: %w", len(xs)+1, err))
			break
		}
		xs = append(xs, d.Seconds())
	}
	return xs
}

// endToEnd measures the untraced closed loop.
func (h *harness) endToEnd() result {
	h.op() // warm-up: fills caches and sets the reference result
	setup := h.extraSetups()
	h.loop(3)
	return h.endToEndResult(setup)
}

// endToEndResult reduces the kept ops, plus extra set-up samples, to
// the end-to-end metrics.
func (h *harness) endToEndResult(setup []float64) result {
	var ips, pps, heap, bytes, allocs, lat []float64
	for _, o := range h.ops {
		w := o.wall.Seconds()
		ips = append(ips, float64(o.res.simInsts)/w)
		pps = append(pps, float64(len(o.res.points))/w)
		setup = append(setup, o.res.setup.Seconds())
		heap = append(heap, float64(o.heapPeak))
		bytes = append(bytes, float64(o.mem.bytes))
		allocs = append(allocs, float64(o.mem.mallocs))
		for _, p := range o.res.points {
			lat = append(lat, p.latency.Seconds())
		}
	}
	m := map[string]metric{
		"sim_ips":            {median(ips), "1/s"},
		"points_per_s":       {median(pps), "1/s"},
		"point_s_p50":        {quantile(lat, 0.5), "s"},
		"point_s_p80":        {quantile(lat, 0.8), "s"},
		"setup_s":            {median(setup), "s"},
		"heap_peak_bytes":    {median(heap), "bytes"},
		"alloc_bytes_per_op": {median(bytes), "bytes"},
		"allocs_per_op":      {median(allocs), "count"},
	}
	return h.result(m)
}

// perLayer runs the layer drills, then alternates untraced and traced
// ops until the deadline, and reports spans, counts and drill timings.
func (h *harness) perLayer(log *spanLog, seed uint64, sz sizes, dir string) result {
	h.op() // warm-up: fills caches and sets the reference result
	d := runDrills(seed, sz, dir)
	fmt.Fprintf(os.Stderr, "perfbench: drills took %s\n", strings.Join(d.took, ", "))
	h.attempted += d.attempted
	h.failed += d.failed
	h.errs = append(h.errs, d.errs...)

	var overheads []float64 // traced wall / untraced wall - 1, per pair
	var spanSets []map[string]time.Duration
	var busies []time.Duration
	var overhead []float64
	for i := 0; i == 0 || time.Now().Before(h.deadline); i++ {
		var untraced time.Duration
		if st, ok := h.op(); ok {
			h.ops = append(h.ops, st)
			untraced = st.wall
			for _, p := range st.res.points {
				overhead = append(overhead, (p.latency - p.simWall).Seconds())
			}
		}
		h.attempted++
		cleanHeap() // as before every untraced op
		var counts []simCounts
		err := safely(func() error {
			var err error
			counts, err = h.b.traced(log, i)
			return err
		})
		if err == nil && digestCounts(counts) != digestCounts(h.counts) {
			err = errors.New("traced run's simulated counts differ from the untraced run's")
		}
		if err != nil {
			h.fail(fmt.Errorf("traced op %d: %w", i, err))
			continue
		}
		tot, busy := log.totals(i)
		spanSets = append(spanSets, tot)
		busies = append(busies, busy)
		if untraced > 0 {
			overheads = append(overheads, tot[spanOp].Seconds()/untraced.Seconds()-1)
		}
	}

	m := map[string]metric{}
	spanMed := func(name string) float64 {
		xs := make([]float64, len(spanSets))
		for i, s := range spanSets {
			xs[i] = s[name].Seconds()
		}
		return median(xs)
	}
	for _, n := range []string{spanSetup, spanBuild, spanPrepare, spanFill, spanSimulate, spanCollect} {
		m["span."+n+"_s"] = metric{spanMed(n), "s"}
	}
	shares := map[string][]float64{}
	for i, s := range spanSets {
		for _, n := range []string{spanFill, spanSimulate, spanBuild} {
			shares[n] = append(shares[n], s[n].Seconds()/busies[i].Seconds())
		}
	}
	for _, n := range []string{spanFill, spanSimulate, spanBuild} {
		m["share."+n] = metric{median(shares[n]), "ratio"}
	}
	m["trace_overhead"] = metric{median(overheads), "ratio"}
	var sum simCounts
	for _, c := range h.counts {
		sum.add(c)
	}
	for _, c := range sum.named() {
		m[c.name] = metric{float64(c.v), "count"}
	}
	m["runner.point_overhead_s"] = metric{median(overhead), "s"}
	for name, unit := range drillNames {
		v, ok := d.out[name]
		if !ok {
			v = math.NaN() // reported as not measured
		}
		m[name] = metric{v, unit}
	}
	r := h.result(m)
	r.Metrics["fail_ratio"] = metric{float64(r.Failed) / float64(r.Attempted), "ratio"}
	return r
}

// result packages metrics; any failed op, check or missing or
// non-finite metric makes it incorrect.
func (h *harness) result(m map[string]metric) result {
	if h.failed == 0 && len(h.ops) == 0 {
		h.fail(errors.New("no op completed"))
	}
	var bad []string
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
			delete(m, k)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		h.fail(fmt.Errorf("metrics not measured: %s", strings.Join(bad, ", ")))
	}
	return result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: m}
}

// drillNames lists every drill metric with its unit.
var drillNames = map[string]string{
	"workloads.gen_ns_per_inst":        "ns",
	"trace.write_ns_per_rec":           "ns",
	"trace.open_s":                     "s",
	"trace.v1_open_s":                  "s",
	"trace.v2_inline_ns_per_rec":       "ns",
	"trace.v2_parallel_ns_per_rec":     "ns",
	"trace.v1_prefetch_ns_per_rec":     "ns",
	"trace.shared_cold_ns_per_rec":     "ns",
	"trace.shared_warm_ns_per_rec":     "ns",
	"trace.shared_fail":                "count",
	"core.build_fresh_us":              "us",
	"core.build_pooled_us":             "us",
	"core.build_allocs_fresh":          "count",
	"core.build_allocs_pooled":         "count",
	"cpu.alu_ns_per_inst":              "ns",
	"tlb.lookup_hit_ns":                "ns",
	"tlb.lookup_miss_insert_ns":        "ns",
	"tlb.hit_ratio":                    "ratio",
	"mmu.translate_hit_ns":             "ns",
	"mmu.translate_walk_ns.radix":      "ns",
	"mmu.translate_walk_ns.ech":        "ns",
	"mmu.translate_walk_ns.hdc":        "ns",
	"mmu.translate_walk_ns.ht":         "ns",
	"cache.access_l1_hit_ns":           "ns",
	"cache.access_llc_miss_ns":         "ns",
	"cache.fetch_instr_ns":             "ns",
	"dram.access_ns":                   "ns",
	"dram.row_hit_ratio":               "ratio",
	"mimicos.fault_4k_ns":              "ns",
	"mimicos.fault_2m_ns":              "ns",
	"mimicos.fault_swapout_ns":         "ns",
	"mimicos.kernel_insts_per_fault":   "count",
	"mimicos.allocs_per_fault.4k":      "count",
	"mimicos.allocs_per_fault.2m":      "count",
	"mimicos.allocs_per_fault.swapout": "count",
	"tier.fault_demote_ns":             "ns",
	"tier.fault_promote_ns":            "ns",
	"tier.allocs_per_fault":            "count",
	"tier.manager_op_ns":               "ns",
}
