package registry

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/workloads"
)

func policyCtor() mimicos.AllocPolicy { return &mimicos.BuddyPolicy{} }

func designCtor(env DesignEnv) mmu.Design { return env.NewRadix() }

func workloadCtor(p workloads.Params) (*workloads.Workload, error) {
	return workloads.Stress(0, 8), nil
}

func TestRegisterRejectsBadNames(t *testing.T) {
	defer Reset()

	if err := RegisterPolicy("", policyCtor); err == nil {
		t.Error("empty policy name accepted")
	}
	if err := RegisterPolicy("x", nil); err == nil {
		t.Error("nil policy constructor accepted")
	}
	if err := RegisterPolicy("thp", policyCtor); err == nil || !strings.Contains(err.Error(), "built-in") {
		t.Errorf("built-in policy collision not rejected: %v", err)
	}
	if err := RegisterDesign("radix", designCtor); err == nil || !strings.Contains(err.Error(), "built-in") {
		t.Errorf("built-in design collision not rejected: %v", err)
	}
	// Catalog collisions under any accepted spelling are rejected too.
	for _, name := range []string{"BFS", "bfs", "graphbig-bfs", "SEQ"} {
		if err := RegisterWorkload(name, workloadCtor); err == nil {
			t.Errorf("catalog workload collision %q not rejected", name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer Reset()

	if err := RegisterPolicy("dup-p", policyCtor); err != nil {
		t.Fatal(err)
	}
	if err := RegisterPolicy("dup-p", policyCtor); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate policy not rejected: %v", err)
	}
	if err := RegisterDesign("dup-d", designCtor); err != nil {
		t.Fatal(err)
	}
	if err := RegisterDesign("dup-d", designCtor); err == nil {
		t.Error("duplicate design not rejected")
	}
	if err := RegisterWorkload("dup-w", workloadCtor); err != nil {
		t.Fatal(err)
	}
	if err := RegisterWorkload("dup-w", workloadCtor); err == nil {
		t.Error("duplicate workload not rejected")
	}
}

func TestNamesSortedAndLookup(t *testing.T) {
	defer Reset()

	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := RegisterPolicy(n, policyCtor); err != nil {
			t.Fatal(err)
		}
	}
	names := PolicyNames()
	want := []string{"bd", "thp", "cr-thp", "ar-thp", "utopia", "eager", "alpha", "mid", "zeta"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("PolicyNames() = %v, want %v", names, want)
	}
	for _, name := range []string{"alpha", "thp"} {
		if _, ok := NewPolicy(name); !ok {
			t.Errorf("policy %q not found", name)
		}
	}
	if _, ok := NewPolicy("nope"); ok {
		t.Error("unknown policy found")
	}
	// Reset drops the registrations and keeps the built-ins.
	Reset()
	if names := PolicyNames(); fmt.Sprint(names) != fmt.Sprint(want[:6]) {
		t.Errorf("after Reset, PolicyNames() = %v, want %v", names, want[:6])
	}
}

// TestConcurrentReadsDuringRegistration is the -race guard for parallel
// sweeps: workers resolve names while another goroutine registers.
func TestConcurrentReadsDuringRegistration(t *testing.T) {
	defer Reset()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				NewPolicy("conc-0")
				LookupDesign("conc-0")
				NewPolicy("thp")
				NewWorkload("conc-0", workloads.Params{})
				PolicyNames()
				DesignNames()
				WorkloadNames()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("conc-%d", i)
		if err := RegisterPolicy(name, policyCtor); err != nil {
			t.Error(err)
		}
		if err := RegisterDesign(name, designCtor); err != nil {
			t.Error(err)
		}
		if err := RegisterWorkload(name, workloadCtor); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}
