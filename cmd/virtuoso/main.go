// Command virtuoso runs one simulation configuration — or a whole
// design-space grid — and prints metrics, the CLI equivalent of the
// Open/Sweep API.
//
// Usage:
//
//	virtuoso -workload BFS -design radix -policy thp -insts 2000000
//	virtuoso -workload Llama-2-7B -design utopia -policy utopia
//	virtuoso -workload BFS,XS -design radix,ech,ht -seeds 1,2 -parallel 8
//	virtuoso -workload BFS -design radix,ech -json > results.json
//	virtuoso -list
//
// Grid-valued flags (-workload, -design, -policy, -seeds) accept
// comma-separated lists; when the grid has more than one point the
// sweep runs on a bounded worker pool and prints one row per point.
// The grid flags fill a virtuoso.SweepSpec (docs/sweep-service.md maps
// each flag to its spec key), and SweepSpec.Sweep checks and builds the
// grid exactly as it does for `virtuoso sweep run -spec`.
//
// With -multi the -workload list becomes one multiprogrammed run
// instead of a grid axis: every named workload is a concurrent process
// in its own address space, interleaved by the MimicOS round-robin
// scheduler. -quantum sets the time slice in simulated cycles and
// -asid-retention keeps TLB entries across context switches (isolated
// by ASID tags) instead of flushing:
//
//	virtuoso -multi -workload rnd,seq
//	virtuoso -multi -workload rnd,seq,bfs -quantum 50000 -asid-retention
//	virtuoso -multi -workload rnd,seq -design radix,ech -json
//
// -tiers configures a tiered physical memory hierarchy: a
// comma-separated list of slow tiers between DRAM and swap, each as
// name:bytes:readLat:writeLat[:bytesPerCycle] with K/M/G capacity
// suffixes, ordered fastest to slowest. -tier-policy selects the page
// migration policy (comma-separated to sweep policies as a grid axis):
//
//	virtuoso -workload RND -tiers cxl:64M:600:900:8
//	virtuoso -workload RND -tiers cxl:64M:600:900:8,nvm:1G:2500:8000:2 -tier-policy hotcold,clock
//
// -progress streams live interval snapshots from inside each running
// point to stderr (the public Observer API): instructions retired, IPC,
// L2 TLB MPKI, and faults so far. Custom components registered through
// the repro/ext extension API are accepted by name in -workload,
// -design, and -policy, and appear in -list.
//
// The trace subcommand records and replays instruction traces (the
// §6.2 trace-driven frontends; see docs/trace-format.md). Recording
// writes the v2 container; a legacy v1 file replays as it is, or
// convert rewrites it as v2:
//
//	virtuoso trace record -workload graphbig-bfs -o bfs.trc
//	virtuoso trace replay bfs.trc
//	virtuoso trace replay -memtrace -design ech bfs.trc
//	virtuoso trace info bfs.trc
//	virtuoso trace convert legacy-v1.trc.gz bfs.trc
//
// The sweep subcommand runs declarative JSON sweep specs with
// deterministic sharding, durable checkpoint/resume, shard-merge
// validation, and a streaming job server (see docs/sweep-service.md):
//
//	virtuoso sweep run -spec study.json -shard 0/3 -checkpoint s0.jsonl
//	virtuoso sweep merge -o report.json s0.jsonl s1.jsonl s2.jsonl
//	virtuoso sweep serve -addr :8089 -dir jobs/
//
// The top-level grid runner accepts the same -shard and -checkpoint
// flags for ad-hoc sharded or resumable sweeps without a spec file.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	virtuoso "repro"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweepCmd(os.Args[2:])
		return
	}
	cli, err := parseFlags(os.Args[1:])
	check(err)
	if cli.list {
		fmt.Println("long-running:")
		for _, w := range virtuoso.LongRunningSuite() {
			fmt.Printf("  %-12s footprint=%dMB\n", w.Name(), w.FootprintBytes()>>20)
		}
		fmt.Println("short-running:")
		for _, w := range virtuoso.ShortRunningSuite() {
			fmt.Printf("  %-12s footprint=%dMB\n", w.Name(), w.FootprintBytes()>>20)
		}
		fmt.Println("mix extras:")
		for _, w := range virtuoso.ExtraWorkloads() {
			fmt.Printf("  %-12s footprint=%dMB\n", w.Name(), w.FootprintBytes()>>20)
		}
		if reg := virtuoso.RegisteredWorkloads(); len(reg) > 0 {
			fmt.Println("registered workloads:")
			for _, name := range reg {
				fmt.Printf("  %s\n", name)
			}
		}
		fmt.Printf("designs:       %v\n", virtuoso.KnownDesigns())
		fmt.Printf("policies:      %v\n", virtuoso.KnownPolicies())
		fmt.Printf("tier policies: %v\n", virtuoso.KnownTierPolicies())
		return
	}

	sweep, err := cli.spec.Sweep()
	check(err)
	if cli.spec.Label == naturalPoliciesLabel {
		sweep.Configure = naturalPolicy
	}
	sweep.Checkpoint = cli.checkpoint

	// -progress streams interval snapshots from inside each running
	// point — the Observer API driving a live progress display. Points
	// run concurrently, so one mutex serialises the stderr lines.
	if cli.progress {
		var mu sync.Mutex
		insts := *cli.spec.MaxAppInsts
		sweep.Observe = func(p virtuoso.Point) virtuoso.Observer {
			label := fmt.Sprintf("%s/%s/%s seed=%d", p.Workload, p.Design, p.Policy, p.Seed)
			// -insts bounds each process individually, while the
			// snapshot counters aggregate the whole mix: scale the
			// denominator, and clamp since workloads may finish early.
			bound := insts * uint64(max(1, len(p.Mix)))
			return virtuoso.ObserverFunc(func(s virtuoso.Snapshot) {
				mu.Lock()
				defer mu.Unlock()
				pct := ""
				if bound > 0 {
					pct = fmt.Sprintf(" (%3.0f%%)", min(100, 100*float64(s.AppInsts)/float64(bound)))
				}
				fmt.Fprintf(os.Stderr, "  ... %-40s insts=%d%s IPC=%.3f MPKI=%.2f faults=%d\n",
					label, s.AppInsts, pct, s.IPC(),
					1000*float64(s.L2TLBMisses)/float64(max(s.AppInsts, 1)), s.MinorFaults+s.MajorFaults)
			})
		}
	}

	// Ctrl-C cancels the sweep mid-simulation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(sweep.Points()) > 1 && !cli.json {
		sweep.Progress = func(ev virtuoso.SweepEvent) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s/%s seed=%d\n",
				ev.Done, ev.Total, ev.Point.Workload, ev.Point.Design, ev.Point.Policy, ev.Point.Seed)
		}
	}

	report, err := sweep.Run(ctx)
	if err != nil {
		if report != nil && len(report.Results) > 0 {
			fmt.Fprintf(os.Stderr, "sweep aborted after %d/%d points\n", len(report.Results), report.Points)
		}
		check(err)
	}

	switch {
	case cli.json:
		data, err := report.JSON()
		check(err)
		check(writeLine(os.Stdout, data))
	case len(report.Results) == 1 && report.Results[0].Multi != nil:
		printMulti(report.Results[0])
	case len(report.Results) == 1:
		printSingle(report.Results[0])
	default:
		printGrid(report)
	}
}

// naturalPoliciesLabel salts the spec hash of a grid run with
// naturalPolicy: the pairing changes results in a way the declarative
// spec fields cannot express, so a checkpoint written under it cannot
// be resumed by a run without it, and vice versa.
const naturalPoliciesLabel = "cli-natural-policies"

// naturalPolicy is the Configure hook used when -policy is left at its
// default: it pairs each design with its natural allocation policy
// (utopia wants its own allocator, RMM eager paging).
func naturalPolicy(cfg *virtuoso.Config, _ virtuoso.Point) error {
	switch cfg.Design {
	case virtuoso.DesignUtopia:
		cfg.Policy = virtuoso.PolicyUtopia
	case virtuoso.DesignRMM:
		cfg.Policy = virtuoso.PolicyEager
	}
	return nil
}

// cliFlags is the parsed top-level command line. The grid flags fill
// spec, so SweepSpec.Sweep checks them exactly as it checks a JSON
// spec; the rest select output and the hooks a spec cannot express.
type cliFlags struct {
	spec                 virtuoso.SweepSpec
	list, json, progress bool
	checkpoint           string
}

// choices joins catalog names into a flag help's a|b|c list.
func choices[N ~string](names []N) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return strings.Join(out, "|")
}

// parseFlags parses the top-level command line (os.Args[1:]). It
// checks only flag syntax — lists, seeds, tier entries — and leaves
// every name, range, and axis combination to SweepSpec.Sweep.
func parseFlags(args []string) (*cliFlags, error) {
	c := &cliFlags{}
	sp := &c.spec
	fs := flag.NewFlagSet("virtuoso", flag.ExitOnError)
	workload := fs.String("workload", "BFS", "workload name(s), comma-separated (-list to enumerate; registered names accepted)")
	design := fs.String("design", string(virtuoso.DesignRadix), "translation design(s), comma-separated: "+choices(virtuoso.KnownDesigns())+", or a registered name")
	policy := fs.String("policy", string(virtuoso.PolicyTHP), "allocation policy(ies), comma-separated: "+choices(virtuoso.KnownPolicies())+", or a registered name")
	fs.StringVar(&sp.Mode, "mode", "imitation", "OS methodology: imitation|emulation")
	sp.MaxAppInsts = fs.Uint64("insts", 2_000_000, "max application instructions (0 = run to completion)")
	fs.Float64Var(&sp.Scale, "scale", 0.25, "workload footprint scale")
	sp.Frag = fs.Float64("frag", 0.80, "fragmentation level (fraction of 2MB blocks unavailable)")
	seeds := fs.String("seeds", "1", "simulation seed(s), comma-separated")
	fs.IntVar(&sp.Parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	fs.BoolVar(&c.json, "json", false, "emit results as JSON")
	fs.BoolVar(&c.list, "list", false, "list workloads, designs, and policies, then exit")
	multi := fs.Bool("multi", false, "run the -workload list as one multiprogrammed mix (concurrent processes)")
	fs.Uint64Var(&sp.Quantum, "quantum", 0, "scheduler time slice in simulated cycles (0 = default; -multi only)")
	fs.BoolVar(&sp.ASIDRetention, "asid-retention", false, "retain TLB entries across context switches by ASID tag instead of flushing (-multi only)")
	tiers := fs.String("tiers", "", "slow memory tiers, comma-separated name:bytes:readLat:writeLat[:bytesPerCycle] (e.g. cxl:64M:600:900:8,nvm:1G:2500:8000:2)")
	tierPolicy := fs.String("tier-policy", "", "tier migration policy(ies), comma-separated: "+choices(virtuoso.KnownTierPolicies())+", or a registered name (requires -tiers)")
	fs.BoolVar(&c.progress, "progress", false, "stream live per-point progress snapshots to stderr while simulating")
	fs.StringVar(&sp.Shard, "shard", "", "run only a deterministic slice of the grid, as i/N (shard files merge with `virtuoso sweep merge`)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "JSONL checkpoint file: persist per-point results as they land and resume from it on restart")
	fs.Parse(args)
	if c.list {
		return c, nil
	}

	var err error
	if sp.Seeds, err = parseSeeds(*seeds); err != nil {
		return nil, err
	}
	tierSpecs, err := parseTierSpecs(*tiers)
	if err != nil {
		return nil, err
	}
	if len(tierSpecs) > 0 {
		sp.TierSpecs = [][]virtuoso.TierSpec{tierSpecs}
	}
	// -multi turns the workload list into one multiprogrammed mix; the
	// other axes (designs, policies, seeds) still expand the grid.
	if *multi {
		sp.Mixes = [][]string{splitList(*workload)}
	} else {
		sp.Workloads = splitList(*workload)
	}
	sp.Designs = splitList(*design)
	sp.Policies = splitList(*policy)
	sp.TierPolicies = splitList(*tierPolicy)
	sp.Label = naturalPoliciesLabel
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "policy" {
			sp.Label = "" // an explicit -policy turns the pairing off
		}
	})
	return c, nil
}

// printMulti renders one multiprogrammed run: the scheduler summary, a
// per-process table, and the aggregate metrics.
func printMulti(r virtuoso.Result) {
	mm := r.Multi
	mode := "flush-on-switch"
	if mm.ASIDRetention {
		mode = "ASID retention"
	}
	fmt.Printf("mix             %s\n", r.Workload)
	fmt.Printf("design/policy   %s / %s (%s, seed %d)\n", r.Design, r.Metrics.Policy, r.Mode, r.Seed)
	fmt.Printf("scheduler       quantum=%d cycles, %s, %d switches (%d cycles), %d TLB flushes\n",
		mm.Quantum, mode, mm.ContextSwitches, r.Metrics.CtxSwitchCycles, mm.TLBFlushes)
	fmt.Printf("\n%-4s %-12s %8s %8s %10s %8s %8s %9s %8s %8s\n",
		"pid", "workload", "slices", "IPC", "insts", "MPKI", "walks", "minflt", "swapout", "collapse")
	for _, pm := range mm.Procs {
		fmt.Printf("%-4d %-12s %8d %8.3f %10d %8.2f %8d %9d %8d %8d\n",
			pm.PID, pm.Workload, pm.Slices, pm.IPC, pm.AppInsts,
			pm.L2TLBMPKI, pm.Walks, pm.OS.MinorFaults, pm.OS.SwapOuts, pm.OS.Collapses)
	}
	m := r.Metrics
	fmt.Printf("\naggregate       app=%d kernel=%d cycles=%d IPC %.3f\n", m.AppInsts, m.KernelInsts, m.Cycles, m.IPC)
	fmt.Printf("translation     %.2f%% of cycles, L2 TLB MPKI %.2f, avg PTW %.1f cycles (%d walks)\n",
		100*m.TranslationFraction(), m.L2TLBMPKI, m.AvgPTWLat, m.Walks)
	fmt.Printf("memory          %d minor / %d major faults, swap in/out %d/%d, reclaim runs %d\n",
		m.MinorFaults, m.MajorFaults, m.OS.SwapIns, m.OS.SwapOuts, m.OS.ReclaimRuns)
	fmt.Printf("wall time       %v\n", m.WallTime)
}

func printSingle(r virtuoso.Result) {
	m := r.Metrics
	fmt.Printf("workload        %s\n", m.Workload)
	fmt.Printf("design/policy   %s / %s (%s, seed %d)\n", m.Design, m.Policy, r.Mode, r.Seed)
	fmt.Printf("instructions    app=%d kernel=%d (%.1f%% kernel)\n", m.AppInsts, m.KernelInsts, 100*m.KernelInstFraction())
	fmt.Printf("cycles          %d  IPC %.3f\n", m.Cycles, m.IPC)
	fmt.Printf("translation     %.2f%% of cycles, L2 TLB MPKI %.2f, avg PTW %.1f cycles (%d walks)\n",
		100*m.TranslationFraction(), m.L2TLBMPKI, m.AvgPTWLat, m.Walks)
	fmt.Printf("allocation      %.2f%% of cycles, %d minor / %d major faults\n",
		100*m.AllocationFraction(), m.MinorFaults, m.MajorFaults)
	if m.PFLatNs != nil && m.PFLatNs.Len() > 0 {
		fmt.Printf("fault latency   median %.0f ns, p99 %.0f ns, max %.0f ns\n",
			m.PFLatNs.Median(), m.PFLatNs.Percentile(99), m.PFLatNs.Max())
	}
	fmt.Printf("dram            row-hit %.1f%%, conflicts %d (translation-induced %d)\n",
		100*m.Dram.RowHitRate(), m.Dram.TotalConflicts(), m.Dram.TranslationConflicts())
	fmt.Printf("os              THP pool/direct/fallback %d/%d/%d, collapses %d, swap in/out %d/%d\n",
		m.OS.THPPoolHits, m.OS.THPDirectZero, m.OS.THPFallback4K, m.OS.Collapses, m.OS.SwapIns, m.OS.SwapOuts)
	if len(m.Tiers) > 0 {
		fmt.Printf("tiering         policy %s, %d demotions / %d promotions, %d migration cycles\n",
			r.TierPolicy, m.OS.Demotions, m.OS.Promotions, m.OS.MigrationCycles)
		for _, ts := range m.Tiers {
			fmt.Printf("  tier %-9s %6.1f MB used, in/out %d/%d pages (%d promoted), rd/wr cycles %d/%d\n",
				ts.Name, float64(ts.UsedBytes)/(1<<20), ts.PagesIn, ts.PagesOut, ts.Promotions,
				ts.ReadCycles, ts.WriteCycles)
		}
	}
	if m.SwapDev.Reads+m.SwapDev.Writes > 0 {
		fmt.Printf("swap device     %d reads / %d writes, cache hits %d, busy %d cycles\n",
			m.SwapDev.Reads, m.SwapDev.Writes, m.SwapDev.CacheHits, m.SwapDev.BusyCycles)
	}
	fmt.Printf("wall time       %v\n", m.WallTime)
}

func printGrid(report *virtuoso.Report) {
	// The tier-policy column only appears when the grid has tiered
	// points, so flat sweeps keep their familiar table.
	tiered := false
	for _, r := range report.Results {
		tiered = tiered || r.TierPolicy != ""
	}
	tp := ""
	if tiered {
		tp = fmt.Sprintf(" %-8s", "tierpol")
	}
	fmt.Printf("%-12s %-10s %-8s%s %-5s %8s %8s %8s %9s %8s\n",
		"workload", "design", "policy", tp, "seed", "IPC", "MPKI", "avgPTW", "minflt", "wall")
	for _, r := range report.Results {
		m := r.Metrics
		if tiered {
			tp = fmt.Sprintf(" %-8s", r.TierPolicy)
		}
		fmt.Printf("%-12s %-10s %-8s%s %-5d %8.3f %8.2f %8.1f %9d %8s\n",
			r.Workload, r.Design, r.Policy, tp, r.Seed,
			m.IPC, m.L2TLBMPKI, m.AvgPTWLat, m.MinorFaults, m.WallTime.Round(1e6).String())
	}
	fmt.Printf("\n%d points in %v\n", len(report.Results), report.Wall.Round(1e6))
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseTierSpecs parses the -tiers flag: a comma-separated list of
// name:bytes:readLat:writeLat[:bytesPerCycle] entries ordered fastest
// to slowest, e.g. "cxl:64M:600:900:8,nvm:1G:2500:8000:2".
func parseTierSpecs(s string) ([]virtuoso.TierSpec, error) {
	var out []virtuoso.TierSpec
	for _, part := range splitList(s) {
		f := strings.Split(part, ":")
		if len(f) != 4 && len(f) != 5 {
			return nil, fmt.Errorf("virtuoso: bad -tiers entry %q, want name:bytes:readLat:writeLat[:bytesPerCycle]", part)
		}
		spec := virtuoso.TierSpec{Name: strings.TrimSpace(f[0])}
		var err error
		if spec.Bytes, err = parseSize(f[1]); err != nil {
			return nil, fmt.Errorf("virtuoso: tier %q: %w", spec.Name, err)
		}
		if spec.ReadLat, err = strconv.ParseUint(f[2], 10, 64); err != nil {
			return nil, fmt.Errorf("virtuoso: tier %q: bad read latency %q", spec.Name, f[2])
		}
		if spec.WriteLat, err = strconv.ParseUint(f[3], 10, 64); err != nil {
			return nil, fmt.Errorf("virtuoso: tier %q: bad write latency %q", spec.Name, f[3])
		}
		if len(f) == 5 {
			if spec.BytesPerCycle, err = strconv.ParseUint(f[4], 10, 64); err != nil {
				return nil, fmt.Errorf("virtuoso: tier %q: bad bandwidth %q", spec.Name, f[4])
			}
		}
		out = append(out, spec)
	}
	return out, nil
}

// parseSize parses a byte count with an optional K/M/G suffix.
func parseSize(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	orig := s
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v > math.MaxUint64/mult {
		return 0, fmt.Errorf("size %q overflows 64 bits", orig)
	}
	return v * mult, nil
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range splitList(s) {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("virtuoso: bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
