package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Table2 reports the VM schemes implemented in this repository's VirTool
// equivalent (paper Table 2's Virtuoso row). Each cell is 1 (implemented)
// and the feature list mirrors the paper's columns.
func Table2() *Table {
	t := &Table{
		ID:      "table2",
		Title:   "VM schemes included (1 = implemented)",
		Columns: []string{"implemented"},
	}
	features := []string{
		"Configurable TLB hierarchy (multi-page-size L1s + unified L2)",
		"Page walk caches (3-level, Table 4)",
		"Radix x86-64 4-level page table",
		"Elastic cuckoo hash page table (ECH)",
		"Open-addressing hashed page table (HDC)",
		"Chained hash page table (HT)",
		"Linux-like THP",
		"Reservation-based THP (CR/AR)",
		"hugetlbfs reservations",
		"1GB pages (DAX/file-backed)",
		"Utopia RestSeg/FlexSeg hybrid mapping",
		"RMM range translation + eager paging",
		"Midgard intermediate address space",
		"Direct segments",
		"Nested (2D) translation for virtualization",
		"Swap + swap cache + kswapd-style reclaim",
		"Page cache with prepopulation",
		"khugepaged collapse daemon",
		"MQSim-style SSD backing store",
	}
	for _, f := range features {
		t.Add(f, 1)
	}
	return t
}

// Table3 reports the integration cost of each simulator adapter in
// source lines, the analogue of the paper's Table 3 (additional LoC to
// integrate Virtuoso into each simulator). It counts the adapter package
// plus the per-frontend hooks in the engine.
func Table3() *Table {
	t := &Table{
		ID:      "table3",
		Title:   "Integration cost (source lines)",
		Columns: []string{"lines"},
	}
	_, here, _, ok := runtime.Caller(0)
	if !ok {
		t.Note("source unavailable at runtime")
		return t
	}
	root := filepath.Dir(filepath.Dir(here)) // internal/
	count := func(rel string) float64 {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return 0
		}
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			s := strings.TrimSpace(line)
			if s == "" || strings.HasPrefix(s, "//") {
				continue
			}
			n++
		}
		return float64(n)
	}
	t.Add("simulator adapters (all five)", count("simulators/simulators.go"))
	t.Add("functional+stream channels", count("core/channel.go"))
	t.Add("MimicOS fault flow", count("mimicos/fault.go"))
	t.Note("Paper Table 3: 56-221 core-model lines and 6-12 files per simulator; here each personality is a thin assembly over shared substrates.")
	return t
}
