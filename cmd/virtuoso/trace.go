package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	virtuoso "repro"
)

const traceUsage = `usage: virtuoso trace <verb> [flags]

verbs:
  record   -workload NAME -o FILE   record a workload's instruction stream
  replay   FILE                     replay a recorded trace through the simulator
  convert  SRC DST                  rewrite a trace into the current (v2) format
  info     FILE                     print a trace file's header, counts, and blocks

Traces are written in the seekable block-compressed v2 format. Legacy
v1 files (optionally gzip-enveloped) still replay, and convert turns
them into v2. Readers detect the format from the file's bytes, never
its name. Run "virtuoso trace <verb> -h" for per-verb flags.
`

// traceCmd dispatches the `virtuoso trace` subcommand.
func traceCmd(args []string) {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, traceUsage)
		os.Exit(2)
	}
	switch args[0] {
	case "record":
		traceRecord(args[1:])
	case "replay":
		traceReplay(args[1:])
	case "convert":
		traceConvert(args[1:])
	case "info":
		traceInfo(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "virtuoso trace: unknown verb %q\n\n%s", args[0], traceUsage)
		os.Exit(2)
	}
}

// simFlags are the simulation-configuration flags record and replay
// share; they mirror the top-level grid flags (single-valued: a trace
// records exactly one configuration).
type simFlags struct {
	design, policy, mode string
	insts                uint64
	scale, frag          float64
	seed                 uint64
}

func addSimFlags(fs *flag.FlagSet, f *simFlags, seedDefault uint64, seedHelp string) {
	fs.StringVar(&f.design, "design", string(virtuoso.DesignRadix), "translation design: "+choices(virtuoso.KnownDesigns()))
	fs.StringVar(&f.policy, "policy", string(virtuoso.PolicyTHP), "allocation policy: "+choices(virtuoso.KnownPolicies()))
	fs.StringVar(&f.mode, "mode", "imitation", "OS methodology: imitation|emulation")
	fs.Uint64Var(&f.insts, "insts", 2_000_000, "max application instructions (0 = run to completion)")
	fs.Float64Var(&f.scale, "scale", 0.25, "workload footprint scale (record only; a trace fixes the footprint)")
	fs.Float64Var(&f.frag, "frag", 0.80, "fragmentation level (fraction of 2MB blocks unavailable)")
	fs.Uint64Var(&f.seed, "seed", seedDefault, seedHelp)
}

// options converts the shared flags into session options; Open checks
// the design, policy, and fragmentation values.
func (f *simFlags) options() ([]virtuoso.Option, error) {
	mode, err := virtuoso.ParseMode(f.mode)
	if err != nil {
		return nil, err
	}
	return []virtuoso.Option{
		virtuoso.WithScaledConfig(),
		virtuoso.WithDesign(virtuoso.DesignName(f.design)),
		virtuoso.WithPolicy(virtuoso.PolicyName(f.policy)),
		virtuoso.WithMode(mode),
		virtuoso.WithMaxInstructions(f.insts),
		virtuoso.WithFragmentation(f.frag),
		virtuoso.WithSeed(f.seed),
	}, nil
}

func traceRecord(args []string) {
	fs := flag.NewFlagSet("virtuoso trace record", flag.ExitOnError)
	var f simFlags
	workload := fs.String("workload", "", "workload to record (required; see virtuoso -list)")
	out := fs.String("o", "", "output trace file (required)")
	addSimFlags(fs, &f, 1, "simulation seed (stored in the trace header)")
	fs.Parse(args)
	if *workload == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "virtuoso trace record: -workload and -o are required")
		fs.Usage()
		os.Exit(2)
	}

	opts, err := f.options()
	check(err)
	opts = append(opts,
		virtuoso.WithWorkloadScale(f.scale),
		virtuoso.WithWorkload(*workload),
	)
	sess, err := virtuoso.Open(opts...)
	check(err)
	m, info, err := sess.Record(*out)
	check(err)

	st, err := os.Stat(*out)
	check(err)
	fmt.Printf("recorded        %s -> %s\n", info.Workload, *out)
	fmt.Printf("records         %d (%d insts, %d mem ops, %d segments)\n",
		info.Records, info.Instructions, info.MemOps, info.Segments)
	fmt.Printf("format          v%d%s\n", info.Version, blockSummary(info))
	fmt.Printf("size            %d bytes (%.2f bits/inst, compressed=%v)\n",
		st.Size(), float64(st.Size()*8)/float64(max(info.Instructions, 1)), info.Compressed)
	fmt.Printf("recording run   IPC %.3f, %d minor faults, seed %d\n", m.IPC, m.MinorFaults, info.Seed)
}

// blockSummary renders the v2 block/index line fragment ("" for v1).
func blockSummary(info virtuoso.TraceInfo) string {
	if info.Version < 2 {
		return ""
	}
	return fmt.Sprintf(" (%d blocks, index %d bytes, block ratio %.3f)",
		info.Blocks, info.IndexBytes, compRatio(info))
}

// compRatio is the mean per-block compression ratio: compressed block
// payload bytes over raw.
func compRatio(info virtuoso.TraceInfo) float64 {
	if info.RawBytes == 0 {
		return 0
	}
	return float64(info.CompBytes) / float64(info.RawBytes)
}

func traceConvert(args []string) {
	fs := flag.NewFlagSet("virtuoso trace convert", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the written file's summary as JSON")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "virtuoso trace convert: exactly two arguments required: SRC DST")
		fs.Usage()
		os.Exit(2)
	}
	src, dst := fs.Arg(0), fs.Arg(1)
	info, err := virtuoso.ConvertTrace(src, dst)
	check(err)
	if *jsonOut {
		data, err := json.MarshalIndent(info, "", "  ")
		check(err)
		fmt.Println(string(data))
		return
	}
	st, err := os.Stat(dst)
	check(err)
	fmt.Printf("converted       %s -> %s\n", src, dst)
	fmt.Printf("records         %d (%d insts, %d mem ops)\n", info.Records, info.Instructions, info.MemOps)
	fmt.Printf("format          v%d%s\n", info.Version, blockSummary(info))
	fmt.Printf("size            %d bytes (%.2f bits/inst)\n",
		st.Size(), float64(st.Size()*8)/float64(max(info.Instructions, 1)))
}

func traceReplay(args []string) {
	fs := flag.NewFlagSet("virtuoso trace replay", flag.ExitOnError)
	var f simFlags
	memtrace := fs.Bool("memtrace", false, "memory-trace-driven replay (Ramulator-style: only memory ops simulated)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON")
	canonical := fs.Bool("canonical", false, "emit the result as canonical (determinism-comparison) JSON")
	outFile := fs.String("o", "", "write the JSON report to FILE instead of stdout")
	seedsFlag := fs.String("seeds", "", "comma-separated seed list: replay once per seed through a shared decoded-trace store (a 0 entry means the recorded seed)")
	storeMB := fs.Int64("store-mb", 0, "decoded-trace store budget in MiB for -seeds replays (0 = the ~1 GiB default)")
	rounds := fs.Int("rounds", 1, "repeat the -seeds replay set; rounds after the first must decode nothing and reproduce round 1 byte-identically")
	addSimFlags(fs, &f, 0, "simulation seed (0 = the seed recorded in the trace)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "virtuoso trace replay: exactly one trace file required")
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)

	// Header-only read: no point decoding the whole record section just
	// to learn the recorded seed.
	hdr, err := virtuoso.ReadTraceHeader(path)
	check(err)
	if f.seed == 0 {
		f.seed = hdr.Seed
	}

	if *seedsFlag == "" {
		opts, err := f.options()
		check(err)
		if *memtrace {
			opts = append(opts, virtuoso.WithFrontend(virtuoso.FrontendMemTrace))
		}
		opts = append(opts, virtuoso.WithTrace(path))
		sess, err := virtuoso.Open(opts...)
		check(err)
		m, err := sess.Run()
		check(err)

		r := sess.Result(m)
		if *jsonOut || *canonical || *outFile != "" {
			rep := &virtuoso.Report{Results: []virtuoso.Result{r}, Points: 1}
			check(emitReport(rep, *canonical, *outFile))
			return
		}
		printSingle(r)
		return
	}

	seeds, err := parseReplaySeeds(*seedsFlag, hdr.Seed)
	check(err)
	if *rounds < 1 {
		*rounds = 1
	}
	store := virtuoso.NewTraceStore(*storeMB << 20)
	var first []byte
	for round := 1; round <= *rounds; round++ {
		before := store.Stats()
		rep := &virtuoso.Report{Points: len(seeds)}
		for _, seed := range seeds {
			f.seed = seed
			opts, err := f.options()
			check(err)
			if *memtrace {
				opts = append(opts, virtuoso.WithFrontend(virtuoso.FrontendMemTrace))
			}
			opts = append(opts, virtuoso.WithTrace(path), virtuoso.WithTraceStore(store))
			sess, err := virtuoso.Open(opts...)
			check(err)
			m, err := sess.Run()
			check(err)
			rep.Results = append(rep.Results, sess.Result(m))
		}
		after := store.Stats()
		fmt.Fprintf(os.Stderr, "round %d: %d points, %d decoded, %d from store\n",
			round, len(seeds), after.Decodes-before.Decodes, after.Hits-before.Hits)
		canon, err := rep.CanonicalJSON()
		check(err)
		if round == 1 {
			first = canon
			check(emitReport(rep, *canonical, *outFile))
		} else if !bytes.Equal(canon, first) {
			check(fmt.Errorf("virtuoso trace replay: round %d diverged from round 1 (determinism violation)", round))
		}
	}
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "trace store: %d decodes, %d hits, %d bytes retained (budget %d)\n",
		st.Decodes, st.Hits, st.UsedBytes, st.BudgetBytes)
}

// parseReplaySeeds expands a comma-separated seed list; 0 entries
// resolve to the recorded seed.
func parseReplaySeeds(list string, recorded uint64) ([]uint64, error) {
	seeds, err := parseSeeds(list)
	if err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("virtuoso trace replay: -seeds is empty")
	}
	for i, v := range seeds {
		if v == 0 {
			seeds[i] = recorded
		}
	}
	return seeds, nil
}

// emitReport writes rep as (canonical or indented) JSON to path, or to
// stdout when path is empty.
func emitReport(rep *virtuoso.Report, canonical bool, path string) error {
	var data []byte
	var err error
	if canonical {
		data, err = rep.CanonicalJSON()
	} else {
		data, err = rep.JSON()
	}
	if err != nil {
		return err
	}
	if path == "" {
		return writeLine(os.Stdout, data)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	return errors.Join(writeLine(f, data), f.Close())
}

// writeLine writes data and then a newline to w. A report's buffer is
// sized exactly, so appending the newline (or converting to a string)
// would copy the whole report.
func writeLine(w io.Writer, data []byte) error {
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func traceInfo(args []string) {
	fs := flag.NewFlagSet("virtuoso trace info", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "virtuoso trace info: exactly one trace file required")
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)
	info, err := virtuoso.ReadTraceInfo(path)
	check(err)
	if *jsonOut {
		data, err := json.MarshalIndent(info, "", "  ")
		check(err)
		fmt.Println(string(data))
		return
	}
	st, err := os.Stat(path)
	check(err)
	fmt.Printf("trace           %s (v%d, compressed=%v, %d bytes)\n", path, info.Version, info.Compressed, st.Size())
	fmt.Printf("workload        %s (%s-running, footprint %d MB)\n", info.Workload, info.Class, info.FootprintBytes>>20)
	fmt.Printf("seed            %d\n", info.Seed)
	fmt.Printf("layout          %d segments\n", info.Segments)
	fmt.Printf("records         %d (%d insts, %d mem ops, %.2f bits/inst)\n",
		info.Records, info.Instructions, info.MemOps,
		float64(st.Size()*8)/float64(max(info.Instructions, 1)))
	if info.Version >= 2 {
		fmt.Printf("blocks          %d (index %d bytes, payload %d -> %d bytes, block ratio %.3f)\n",
			info.Blocks, info.IndexBytes, info.RawBytes, info.CompBytes, compRatio(info))
	}
}
