// Command figures regenerates the paper's evaluation tables and figures
// (§7) and renders them as markdown, the source material of
// EXPERIMENTS.md. The document depends only on the flags, so runs
// compare with cmp; the generation time and timings go to stderr.
//
// Usage:
//
//	figures                 # every experiment, full size (slow)
//	figures -quick          # every experiment, reduced size
//	figures -only fig13     # one experiment
//	figures -out results.md # write to a file instead of stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced configurations (minutes instead of hours)")
		only     = flag.String("only", "", "comma-separated experiment ids (e.g. fig13,fig21)")
		out      = flag.String("out", "", "output file (default stdout)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", 0, "max concurrent simulation points per experiment (0 = GOMAXPROCS)")
	)
	flag.Parse()

	ids := experiments.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}

	var sb strings.Builder
	sb.WriteString("# Virtuoso-in-Go: reproduced evaluation\n\n")
	fmt.Fprintf(&sb, "Generated with quick=%v.\n\n", *quick)
	fmt.Fprintf(os.Stderr, "generated %s\n", time.Now().Format(time.RFC3339))

	for _, id := range ids {
		f, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(1)
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s...", id)
		tb := f(experiments.Opts{Quick: *quick, Seed: *seed, Parallel: *parallel})
		fmt.Fprintf(os.Stderr, " done in %v\n", time.Since(start).Round(time.Millisecond))
		sb.WriteString(tb.Markdown())
		sb.WriteString("\n")
	}

	if *out == "" {
		fmt.Print(sb.String())
		return
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
}
