// Example trace_replay: record a catalog workload to a compressed trace
// file, inspect it, and replay it through the trace-driven frontend —
// demonstrating that a replayed trace reproduces the live run's metrics
// exactly (the §6.2 ChampSim-style integration).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	virtuoso "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "virtuoso-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bfs.trc")

	// Shared configuration: record and replay must agree on the system
	// (design, policy, seed) for the runs to be comparable.
	cfg := []virtuoso.Option{
		virtuoso.WithScaledConfig(),
		virtuoso.WithDesign(virtuoso.DesignRadix),
		virtuoso.WithPolicy(virtuoso.PolicyTHP),
		virtuoso.WithMaxInstructions(400_000),
		virtuoso.WithSeed(7),
	}

	// Record: a live, fully timed run whose application instruction
	// stream is teed into the trace file as it executes.
	rec, err := virtuoso.Open(append(cfg,
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithWorkload("BFS"),
	)...)
	if err != nil {
		log.Fatal(err)
	}
	live, info, err := rec.Record(path)
	if err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("recorded %s: %d records, %d insts, %d segments, %d bytes on disk\n",
		info.Workload, info.Records, info.Instructions, info.Segments, st.Size())

	// Replay: the trace file becomes the workload. Setup re-creates the
	// recorded address-space layout; instructions stream from the file.
	rep, err := virtuoso.Open(append(cfg, virtuoso.WithTrace(path))...)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := rep.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("live run  IPC %.4f  cycles %d  minor faults %d\n", live.IPC, live.Cycles, live.MinorFaults)
	fmt.Printf("replayed  IPC %.4f  cycles %d  minor faults %d\n", replayed.IPC, replayed.Cycles, replayed.MinorFaults)
	if live.Cycles == replayed.Cycles && live.IPC == replayed.IPC {
		fmt.Println("replay is deterministic: metrics identical")
	} else {
		fmt.Println("WARNING: replay diverged from the live run")
	}

	// A memory-trace replay of the same file (Ramulator-style): only
	// memory operations are simulated, so it runs faster but reports
	// different timing.
	mem, err := virtuoso.Open(append(cfg,
		virtuoso.WithFrontend(virtuoso.FrontendMemTrace),
		virtuoso.WithTrace(path),
	)...)
	if err != nil {
		log.Fatal(err)
	}
	mm, err := mem.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memtrace  IPC %.4f  cycles %d (memory ops only)\n", mm.IPC, mm.Cycles)
}
