// Virtualized simulation (§6.1): the nested design runs the workload in
// a guest kernel on a MimicOS hypervisor, and the MMU performs
// two-dimensional nested walks. Guest page faults run guest kernel
// code; backing a guest frame for the first time raises an EPT
// violation handled by the hypervisor kernel. Both instruction streams
// are injected into the core.
package main

import (
	"fmt"
	"log"

	virtuoso "repro"
	"repro/ext"
)

func main() {
	// 512 MB of guest-physical memory; the hypervisor backs it with
	// twice as much machine memory.
	cfg := virtuoso.DefaultConfig()
	cfg.OSCfg.PhysBytes = 512 * ext.MB

	sess, err := virtuoso.Open(
		virtuoso.WithConfig(cfg),
		virtuoso.WithDesign(virtuoso.DesignNested),
		virtuoso.WithPolicy(virtuoso.PolicyBuddy),
		virtuoso.WithWorkload("Hadamard"),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithMaxInstructions(500_000),
	)
	if err != nil {
		log.Fatal(err)
	}
	m, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Virtualized execution: guest Linux on a MimicOS hypervisor ==")
	fmt.Printf("guest page faults     %d (guest kernel streams injected)\n", m.MinorFaults+m.MajorFaults)
	fmt.Printf("EPT violations        %d (hypervisor kernel streams injected)\n", m.HostFaults)
	fmt.Printf("kernel instructions   %d across both kernels\n", m.KernelInsts)
	fmt.Printf("nested walk latency   %.1f cycles average\n", m.AvgPTWLat)
	fmt.Printf("guest IPC             %.3f\n", m.IPC)
	fmt.Println("\nThe nested TLB and host-translation cache keep the 2D walk cost")
	fmt.Println("far below the worst-case 24 accesses of radix-over-radix.")
}
