// Package experiments contains one harness per table and figure of the
// paper's evaluation (§7). Each harness builds the systems, runs the
// workloads, and returns a Table whose rows reproduce the series the
// paper reports. Benchmarks in the repository root run scaled-down
// versions; cmd/figures runs the full versions and renders EXPERIMENTS.md.
//
// Scaling methodology: the paper's workloads use 50–100 GB footprints
// against a 2048-entry L2 STLB. We shrink footprints ~100× and the TLB
// hierarchy proportionally (ScaledMMU) so that the footprint-to-TLB-reach
// and footprint-to-cache ratios that drive every result are preserved.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// Opts sizes an experiment.
type Opts struct {
	// Quick runs a reduced configuration (benchmark mode): fewer
	// workloads, smaller footprints, tighter instruction caps.
	Quick bool
	Seed  uint64
	// Parallel bounds the worker pool the harnesses run their
	// simulation points on (<= 0 means GOMAXPROCS). Every point is an
	// isolated system, so results are identical at any parallelism.
	Parallel int
}

// Table is a reproduced result: rows of labelled numeric cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one table row.
type Row struct {
	Label string
	Cells []float64
}

// Add appends a row.
func (t *Table) Add(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Note appends a free-form note rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |", "series")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %s |", fmtCell(c))
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

func fmtCell(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// ScaledMMU returns the TLB hierarchy scaled to the shrunken footprints:
// the paper's 2048-entry STLB covers 4% of a 100 GB footprint with 2 MB
// pages; a 128-entry STLB covers a similar share of our ~300 MB ones.
func ScaledMMU() mmu.Config {
	return mmu.Config{
		ITLBEntries: 32, ITLBWays: 4, ITLBLat: 1,
		DTLB4KEntries: 16, DTLB4KWays: 4,
		DTLB2MEntries: 8, DTLB2MWays: 4,
		DTLBLat:     1,
		STLBEntries: 128, STLBWays: 8, STLBLat: 12,
		// Preserve the huge-page footprint-to-reach ratio at scale: the
		// paper's 50-100GB footprints dwarf a 2048x2MB STLB; our ~100s-MB
		// footprints must likewise dwarf the huge-page reach.
		STLB4KOnly: true,
		// Four-entry PWCs: the paper's 32 entries cover a sliver of a
		// 100GB footprint; 4 entries cover a similar sliver of ours.
		PWCEntries: 4, PWCWays: 2,
	}
}

// ScaledCaches shrinks the cache hierarchy alongside the footprints so
// page-table state competes with data for capacity, as it does when a
// multi-GB page table meets an MB-scale LLC.
func ScaledCaches() cache.HierarchyConfig {
	c := cache.DefaultHierarchyConfig()
	c.L1ISize = 8 * mem.KB
	c.L1DSize = 8 * mem.KB
	c.L2Size = 128 * mem.KB
	c.L3Size = 256 * mem.KB
	return c
}

// BaseConfig returns the scaled Virtuoso+Sniper system all experiments
// start from.
func BaseConfig(o Opts) core.Config {
	cfg := core.DefaultConfig()
	cfg.MMUCfg = ScaledMMU()
	cfg.CacheCfg = ScaledCaches()
	cfg.OSCfg.PhysBytes = 2 * mem.GB
	cfg.Seed = o.Seed + 1
	if o.Quick {
		cfg.MaxAppInsts = 400_000
	} else {
		cfg.MaxAppInsts = 4_000_000
	}
	return cfg
}

// paramsFor returns the workload construction parameters of the
// experiment size — threaded explicitly through every construction, so
// experiments never touch shared catalog state.
func paramsFor(o Opts) workloads.Params {
	if o.Quick {
		return workloads.Params{Scale: 0.08, LongIters: 4}
	}
	return workloads.Params{Scale: 0.5, LongIters: 10}
}

// byName builds one catalog workload at the experiment parameters;
// harness workload sets are programmatic, so unknown names panic.
func byName(o Opts, name string) *workloads.Workload {
	w, ok := workloads.ByNameWith(name, paramsFor(o))
	if !ok {
		panic(fmt.Sprintf("experiments: unknown workload %q", name))
	}
	return w
}

// longSubset returns the long-running workloads used by an experiment.
func longSubset(o Opts) []*workloads.Workload {
	if o.Quick {
		return []*workloads.Workload{byName(o, "BFS"), byName(o, "RND"), byName(o, "XS")}
	}
	return workloads.LongSuiteWith(paramsFor(o))
}

// shortSubset returns the short-running workloads used by an experiment.
func shortSubset(o Opts) []*workloads.Workload {
	if o.Quick {
		return []*workloads.Workload{byName(o, "JSON"), byName(o, "Llama-2-7B"), byName(o, "2D-Sum")}
	}
	return workloads.ShortSuiteWith(paramsFor(o))
}

// runOne builds a system and runs w under it. Harness configurations
// are programmatic, so configuration errors panic.
func runOne(cfg core.Config, w *workloads.Workload) core.Metrics {
	s, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s.Run(w)
}

// job is one simulation point of an experiment harness: a system
// configuration plus a factory yielding a fresh workload instance.
type job struct {
	cfg core.Config
	w   func() *workloads.Workload
}

// named returns a factory that rebuilds w's catalog entry per call at
// the experiment parameters, so concurrent jobs never share a (mutable)
// *Workload. Workloads not in the catalog are returned as-is and must
// appear in exactly one job.
func named(o Opts, w *workloads.Workload) func() *workloads.Workload {
	name, params := w.Name(), paramsFor(o)
	return func() *workloads.Workload {
		nw, ok := workloads.ByNameWith(name, params)
		if !ok {
			return w
		}
		return nw
	}
}

// runAll executes the jobs on a bounded worker pool (Opts.Parallel) and
// returns their metrics in job order. Harness configurations are
// programmatic, so configuration errors panic as MustNewSystem did when
// the loops were sequential.
func runAll(o Opts, jobs []job) []core.Metrics {
	rjobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		w := j.w
		rjobs[i] = runner.Job{
			Cfg:      j.cfg,
			Workload: func() (*workloads.Workload, error) { return w(), nil },
		}
	}
	outs, err := runner.Run(context.Background(), rjobs, runner.Options{Parallel: o.Parallel})
	if err != nil {
		panic(err)
	}
	ms := make([]core.Metrics, len(jobs))
	for i, out := range outs {
		ms[i] = out.Metrics
	}
	return ms
}

// Registry maps experiment IDs to their harnesses, for cmd/figures.
var Registry = map[string]func(Opts) *Table{
	"fig01":     Fig01,
	"fig02":     Fig02,
	"fig03":     Fig03,
	"fig08":     Fig08,
	"fig09":     Fig09,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"fig13":     Fig13,
	"fig14":     Fig14,
	"fig15":     Fig15,
	"fig16":     Fig16,
	"fig17":     Fig17,
	"fig18":     Fig18,
	"fig19":     Fig19,
	"fig20":     Fig20,
	"fig21":     Fig21,
	"table2":    func(Opts) *Table { return Table2() },
	"table3":    func(Opts) *Table { return Table3() },
	"multiprog": Multiprog,
	"tiering":   Tiering,
}

// IDs returns the experiment identifiers in presentation order.
func IDs() []string {
	return []string{
		"fig01", "fig02", "fig03", "table2", "table3",
		"fig08", "fig09", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "multiprog", "tiering",
	}
}
