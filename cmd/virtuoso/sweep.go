// The sweep subcommand is the cluster-scale face of the Sweep API:
// declarative JSON specs, deterministic shard slices, durable
// checkpoints, a streaming serve mode, and merge tooling that
// reassembles shard files into the exact unsharded Report.
//
//	virtuoso sweep run   -spec study.json -checkpoint study.jsonl
//	virtuoso sweep run   -spec study.json -shard 0/3 -checkpoint s0.jsonl
//	virtuoso sweep merge -o report.json s0.jsonl s1.jsonl s2.jsonl
//	virtuoso sweep hash  -spec study.json
//	virtuoso sweep serve -addr :8089 -dir jobs/
//	virtuoso sweep serve -stdin < study.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	virtuoso "repro"
)

func sweepCmd(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: virtuoso sweep run|merge|hash|serve [flags]")
		os.Exit(2)
	}
	switch args[0] {
	case "run":
		sweepRunCmd(args[1:])
	case "merge":
		sweepMergeCmd(args[1:])
	case "hash":
		sweepHashCmd(args[1:])
	case "serve":
		sweepServeCmd(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "virtuoso sweep: unknown subcommand %q (want run, merge, hash, or serve)\n", args[0])
		os.Exit(2)
	}
}

// loadSpec reads and parses a sweep spec from a file or stdin ("-").
func loadSpec(path string) (*virtuoso.SweepSpec, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return virtuoso.ParseSweepSpec(data)
}

func sweepRunCmd(args []string) {
	fs := flag.NewFlagSet("sweep run", flag.ExitOnError)
	var (
		specPath   = fs.String("spec", "", "sweep spec JSON file (\"-\" = stdin); required")
		shard      = fs.String("shard", "", "run only this slice of the grid, as i/N (overrides the spec)")
		checkpoint = fs.String("checkpoint", "", "JSONL checkpoint file: persist per-point results, resume if it exists (overrides the spec)")
		cacheDir   = fs.String("cache", "", "content-addressed point-result cache directory: warm points skip simulation, fresh points are stored (overrides the spec)")
		parallel   = fs.Int("parallel", 0, "max concurrent simulations (0 = spec value or GOMAXPROCS)")
		canonical  = fs.Bool("canonical", false, "emit the canonical (host-time-stripped) report form for byte comparison")
		progress   = fs.Bool("progress", false, "log per-point completions to stderr")
		out        = fs.String("o", "", "write the report here instead of stdout")
	)
	fs.Parse(args)
	if *specPath == "" {
		check(fmt.Errorf("virtuoso sweep run: -spec is required"))
	}
	spec, err := loadSpec(*specPath)
	check(err)
	sweep, err := spec.Sweep()
	check(err)
	if *shard != "" {
		sweep.Shard, err = virtuoso.ParseShard(*shard)
		check(err)
	}
	if *checkpoint != "" {
		sweep.Checkpoint = *checkpoint
	}
	if *cacheDir != "" {
		sweep.Cache = *cacheDir
	}
	if *parallel != 0 {
		sweep.Parallel = *parallel
	}
	if *progress {
		sweep.Progress = func(ev virtuoso.SweepEvent) {
			src := ""
			if ev.FromCache {
				src = " (cache)"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] point %d %s/%s/%s seed=%d%s\n",
				ev.Done, ev.Total, ev.Point.Index, ev.Point.Workload, ev.Point.Design, ev.Point.Policy, ev.Point.Seed, src)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	report, runErr := sweep.Run(ctx)
	if report != nil && (sweep.Cache != "" || sweep.Checkpoint != "") {
		fmt.Fprintf(os.Stderr, "sweep: %d points done: %d restored from checkpoint, %d from cache, %d simulated\n",
			len(report.Results), report.FromCheckpoint, report.FromCache, report.Executed)
	}
	if report != nil {
		check(emitReport(report, *canonical, *out))
	}
	if runErr != nil {
		if report != nil && sweep.Checkpoint != "" {
			fmt.Fprintf(os.Stderr, "sweep interrupted with %d points complete; rerun the same command to resume from %s\n",
				len(report.Results), sweep.Checkpoint)
		}
		check(runErr)
	}
}

func sweepMergeCmd(args []string) {
	fs := flag.NewFlagSet("sweep merge", flag.ExitOnError)
	var (
		canonical = fs.Bool("canonical", false, "emit the canonical (host-time-stripped) report form for byte comparison")
		out       = fs.String("o", "", "write the merged report here instead of stdout")
	)
	fs.Parse(args)
	if fs.NArg() == 0 {
		check(fmt.Errorf("virtuoso sweep merge: no shard checkpoint files given"))
	}
	report, err := virtuoso.MergeCheckpoints(fs.Args()...)
	check(err)
	check(emitReport(report, *canonical, *out))
}

func sweepHashCmd(args []string) {
	fs := flag.NewFlagSet("sweep hash", flag.ExitOnError)
	specPath := fs.String("spec", "", "sweep spec JSON file (\"-\" = stdin); required")
	fs.Parse(args)
	if *specPath == "" {
		check(fmt.Errorf("virtuoso sweep hash: -spec is required"))
	}
	spec, err := loadSpec(*specPath)
	check(err)
	sweep, err := spec.Sweep()
	check(err)
	summary := struct {
		SpecHash string `json:"spec_hash"`
		Points   int    `json:"points"`
		Shard    string `json:"shard,omitempty"`
	}{sweep.SpecHash(), len(sweep.Points()), sweep.Shard.String()}
	data, err := json.Marshal(summary)
	check(err)
	fmt.Println(string(data))
}
