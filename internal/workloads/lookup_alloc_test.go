//go:build !race

package workloads_test

import (
	"testing"

	virtuoso "repro"
	"repro/internal/workloads"
)

// TestNamedWorkloadBuildsOnlyTheMatch holds one NamedWorkloadWith to
// the allocations of building that workload through its constructor:
// a lookup that built a suite to find one name made ten times as many.
// The race detector allocates on its own account, so the test is not
// built under -race.
func TestNamedWorkloadBuildsOnlyTheMatch(t *testing.T) {
	p := virtuoso.WorkloadParams{Scale: 0.05}
	for _, name := range []string{"SEQ", "XS"} {
		direct := testing.AllocsPerRun(100, func() { workloads.BuildDirect(name, p) })
		named := testing.AllocsPerRun(100, func() {
			if _, err := virtuoso.NamedWorkloadWith(name, p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations by name, %v direct", name, named, direct)
		if named > direct {
			t.Errorf("NamedWorkloadWith(%q) made %v allocations, its constructor %v", name, named, direct)
		}
	}
}
