// Virtualized simulation (§6.1): Virtuoso spawns two MimicOS instances —
// a guest kernel and a hypervisor — and the MMU performs two-dimensional
// nested walks. Guest page faults run guest kernel code; backing a guest
// frame for the first time raises an EPT violation handled by the
// hypervisor kernel. Both instruction streams are injected into the core.
package main

import (
	"fmt"
	"log"

	virtuoso "repro"
	"repro/ext"
)

func main() {
	cfg := virtuoso.DefaultVirtualizedConfig()
	cfg.GuestPhysBytes = 512 * ext.MB
	cfg.HostPhysBytes = 1 * ext.GB

	w, err := virtuoso.NamedWorkloadWith("Hadamard", virtuoso.WorkloadParams{Scale: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	v, err := virtuoso.NewVirtualizedSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	gf, hf, kinsts, ipc := v.Run(w, 500_000)

	fmt.Println("== Virtualized execution: guest Linux on a MimicOS hypervisor ==")
	fmt.Printf("guest page faults     %d (guest kernel streams injected)\n", gf)
	fmt.Printf("EPT violations        %d (hypervisor kernel streams injected)\n", hf)
	fmt.Printf("kernel instructions   %d across both kernels\n", kinsts)
	fmt.Printf("nested walk latency   %.1f cycles average\n", v.MMU.Stats().AvgWalkLatency())
	fmt.Printf("guest IPC             %.3f\n", ipc)
	fmt.Println("\nThe nested TLB and host-translation cache keep the 2D walk cost")
	fmt.Println("far below the worst-case 24 accesses of radix-over-radix.")
}
