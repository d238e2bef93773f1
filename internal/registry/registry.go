// Package registry holds the process-wide component registries behind
// the public extension API (repro/ext): named constructors for custom
// allocation policies, translation designs, and workloads. Registered
// components are addressable by name everywhere a built-in is — Open
// options, sweep grid axes, the CLI flags, and trace recording — because
// the name-resolution points (internal/core for policies and designs,
// the root package for workloads) fall back to these tables after the
// built-in switch misses.
//
// The registries follow the modular interface/implementation style of
// Ramulator 2.0: implementations self-register under a string key and
// the frontends construct them by name. Registration is expected at
// program init time; lookups happen on every system construction, from
// many sweep workers at once, so the tables take a read lock only.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/tier"
	"repro/internal/workloads"
)

// Built-in component names. These must mirror internal/core's DesignName
// and PolicyName constants — registry cannot import core (core consults
// registry), so the sets are duplicated here and pinned to core's by
// TestBuiltinNamesMatchCore in the root package.
var (
	builtinDesigns = map[string]bool{
		"radix": true, "ech": true, "hdc": true, "ht": true,
		"utopia": true, "rmm": true, "midgard": true, "directseg": true,
		"nested": true,
	}
	builtinPolicies = map[string]bool{
		"bd": true, "thp": true, "cr-thp": true, "ar-thp": true,
		"utopia": true, "eager": true,
	}
	builtinTierPolicies = map[string]bool{
		"hotcold": true, "clock": true,
	}
)

// BuiltinDesign reports whether name is a built-in translation design.
func BuiltinDesign(name string) bool { return builtinDesigns[name] }

// BuiltinPolicy reports whether name is a built-in allocation policy.
func BuiltinPolicy(name string) bool { return builtinPolicies[name] }

// BuiltinTierPolicy reports whether name is a built-in tier migration
// policy.
func BuiltinTierPolicy(name string) bool { return builtinTierPolicies[name] }

// DesignEnv is what a registered translation-design constructor gets to
// work with: one process's page table (custom designs usually resolve
// translations functionally through it), the cache hierarchy walks
// charge their memory accesses to, and a pre-built baseline radix walker
// over the same page table for designs that delegate or fall back.
// Designs are per-process — the constructor runs once per process, and
// multiprogrammed runs switch between the instances on dispatch.
type DesignEnv struct {
	PT    pagetable.PageTable
	Mem   mmu.Memory
	Radix *mmu.RadixWalker
	ASID  uint16
}

var (
	mu           sync.RWMutex
	policies     = map[string]func() mimicos.AllocPolicy{}
	tierPolicies = map[string]func() tier.Policy{}
	designs      = map[string]func(DesignEnv) mmu.Design{}
	loads        = map[string]func(workloads.Params) (*workloads.Workload, error){}
)

// validate applies the shared hygiene rules: a non-empty name, a
// non-nil constructor, no collision with a built-in, no duplicate.
func validate[T any](kind, name string, ctor T, isNil bool, builtin func(string) bool, table map[string]T) error {
	if name == "" {
		return fmt.Errorf("registry: empty %s name", kind)
	}
	if isNil {
		return fmt.Errorf("registry: %s %q: nil constructor", kind, name)
	}
	if builtin != nil && builtin(name) {
		return fmt.Errorf("registry: %s %q collides with a built-in (pick a new name)", kind, name)
	}
	if _, dup := table[name]; dup {
		return fmt.Errorf("registry: %s %q already registered", kind, name)
	}
	return nil
}

// RegisterPolicy registers an allocation-policy constructor under name.
// The constructor runs once per simulated system, so stateful policies
// never share state between concurrent sweep points. It rejects empty
// or duplicate names and names colliding with a built-in policy.
func RegisterPolicy(name string, ctor func() mimicos.AllocPolicy) error {
	mu.Lock()
	defer mu.Unlock()
	if err := validate("policy", name, ctor, ctor == nil, BuiltinPolicy, policies); err != nil {
		return err
	}
	policies[name] = ctor
	return nil
}

// NewPolicy constructs a fresh instance of the registered policy, or
// reports false for an unknown name.
func NewPolicy(name string) (mimicos.AllocPolicy, bool) {
	mu.RLock()
	ctor, ok := policies[name]
	mu.RUnlock()
	if !ok {
		return nil, false
	}
	return ctor(), true
}

// PolicyNames returns the registered (non-built-in) policy names, sorted.
func PolicyNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	return sortedKeys(policies)
}

// RegisterTierPolicy registers a tier-migration-policy constructor
// under name. The constructor runs once per simulated system (tier
// policies can be stateful); the usual hygiene rules apply.
func RegisterTierPolicy(name string, ctor func() tier.Policy) error {
	mu.Lock()
	defer mu.Unlock()
	if err := validate("tier policy", name, ctor, ctor == nil, BuiltinTierPolicy, tierPolicies); err != nil {
		return err
	}
	tierPolicies[name] = ctor
	return nil
}

// NewTierPolicy constructs a fresh instance of the registered tier
// policy, or reports false for an unknown name.
func NewTierPolicy(name string) (tier.Policy, bool) {
	mu.RLock()
	ctor, ok := tierPolicies[name]
	mu.RUnlock()
	if !ok {
		return nil, false
	}
	return ctor(), true
}

// TierPolicyNames returns the registered (non-built-in) tier policy
// names, sorted.
func TierPolicyNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	return sortedKeys(tierPolicies)
}

// RegisterDesign registers a translation-design constructor under name.
// The constructor runs once per process (every process owns its design
// instance, the state a CR3 write switches). Same hygiene rules as
// RegisterPolicy.
func RegisterDesign(name string, ctor func(DesignEnv) mmu.Design) error {
	mu.Lock()
	defer mu.Unlock()
	if err := validate("design", name, ctor, ctor == nil, BuiltinDesign, designs); err != nil {
		return err
	}
	designs[name] = ctor
	return nil
}

// NewDesign constructs the registered design over env, or reports false
// for an unknown name.
func NewDesign(name string, env DesignEnv) (mmu.Design, bool) {
	mu.RLock()
	ctor, ok := designs[name]
	mu.RUnlock()
	if !ok {
		return nil, false
	}
	return ctor(env), true
}

// DesignNames returns the registered (non-built-in) design names, sorted.
func DesignNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	return sortedKeys(designs)
}

// RegisterWorkload registers a workload constructor under name. The
// constructor is invoked with the session's (or sweep point's) explicit
// construction parameters and must return a fresh *Workload each call —
// workload state is mutated during a run and is never shared between
// concurrent points. The name must not shadow a catalog workload (the
// Table 5 suites or the mix extras, under any of their accepted
// spellings).
func RegisterWorkload(name string, ctor func(workloads.Params) (*workloads.Workload, error)) error {
	mu.Lock()
	defer mu.Unlock()
	catalog := func(n string) bool { _, ok := workloads.ByName(n); return ok }
	if err := validate("workload", name, ctor, ctor == nil, catalog, loads); err != nil {
		return err
	}
	loads[name] = ctor
	return nil
}

// NewWorkload builds the registered workload with the given parameters.
// ok reports whether the name is registered at all; err is the
// constructor's failure when it is.
func NewWorkload(name string, p workloads.Params) (w *workloads.Workload, ok bool, err error) {
	mu.RLock()
	ctor, ok := loads[name]
	mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	w, err = ctor(p)
	return w, true, err
}

// WorkloadNames returns the registered workload names, sorted.
func WorkloadNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	return sortedKeys(loads)
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reset clears every table — test hook only (see export_test.go).
func reset() {
	mu.Lock()
	defer mu.Unlock()
	policies = map[string]func() mimicos.AllocPolicy{}
	tierPolicies = map[string]func() tier.Policy{}
	designs = map[string]func(DesignEnv) mmu.Design{}
	loads = map[string]func(workloads.Params) (*workloads.Workload, error){}
}
