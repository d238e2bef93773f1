//go:build !race

package phys

import (
	"testing"

	"repro/internal/mem"
)

// TestFragmentAllocs bounds the mallocs of System construction's
// physical memory, New and Fragment(0.2) at 2 GB: 7 on Go 1.24
// linux/amd64, where a Fragment that grew its candidate stacks by
// appends made 26. The race detector allocates on its own account, so
// the test is not built under -race.
func TestFragmentAllocs(t *testing.T) {
	const budget = 8
	got := testing.AllocsPerRun(20, func() { New(2*mem.GB).Fragment(0.2, 1) })
	if got > budget {
		t.Fatalf("New(2 GB) + Fragment(0.2) made %.0f mallocs, budget %d", got, budget)
	}
}
