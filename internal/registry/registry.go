// Package registry is the component catalog: for each component kind —
// allocation policies, tier migration policies, translation designs and
// workloads — one table of named constructors. A table lists its
// built-in entries first, in a fixed order, followed by the entries
// registered through the public extension API (repro/ext), sorted.
// Construction, name parsing, listing, the collision check and the CLI
// help all read these tables, so a registered component is addressable
// by name everywhere a built-in is — Open options, sweep grid axes, the
// CLI flags, and trace recording. (Catalog workloads live in
// internal/workloads; the workload table holds registrations only, and
// rejects names the workload catalog already answers to.)
//
// The tables follow the modular interface/implementation style of
// Ramulator 2.0: implementations are keyed by a string name and the
// frontends construct them by name. Registration is expected at program
// init time; lookups happen on every system construction, from many
// sweep workers at once, so they take a read lock only.
package registry

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/mimicos"
	"repro/internal/mmu"
	"repro/internal/tier"
	"repro/internal/workloads"
)

// DesignEnv is what a translation-design constructor gets to work with:
// the kernel and the process it translates for (the process's page
// table, ASID and per-process design state), the cache hierarchy walks
// charge their memory accesses to, the nested design's host dimension,
// and the page-walk-cache geometry of the baseline radix walker that
// designs delegate to or fall back on. Designs are per-process — the
// constructor runs once per process, and multiprogrammed runs switch
// between the instances on dispatch.
type DesignEnv struct {
	OS   *mimicos.Kernel
	Proc *mimicos.Process
	Mem  mmu.Memory
	// Host translates guest-physical addresses for the nested design
	// (nil for every other design).
	Host                mmu.Walker
	PWCEntries, PWCWays int
}

// NewRadix builds a baseline four-level radix walker over the process's
// page table.
func (e DesignEnv) NewRadix() *mmu.RadixWalker {
	return mmu.NewRadixWalkerSized(e.Proc.PT, e.Mem, e.PWCEntries, e.PWCWays)
}

// Design is a translation design's catalog entry.
type Design struct {
	// PTKind is the page-table organisation the kernel builds for the
	// design ("" = radix).
	PTKind mimicos.PTKind
	// Attach, when set, gives every new process the kernel-side state
	// the design translates through (an RMM range table, a Midgard
	// space) before the design is built for it.
	Attach func(*mimicos.Kernel, *mimicos.Process)
	// New builds the design for one process.
	New func(DesignEnv) mmu.Design
}

// catalog is one component kind's table: built-in entries in a fixed
// order, then registrations kept sorted by name.
type catalog[C any] struct {
	kind     string
	names    []string
	builtins int
	ctors    map[string]C
}

// entry is a built-in's name and constructor.
type entry[C any] struct {
	name string
	ctor C
}

func newCatalog[C any](kind string, builtins ...entry[C]) *catalog[C] {
	c := &catalog[C]{kind: kind, ctors: map[string]C{}}
	for _, e := range builtins {
		c.names = append(c.names, e.name)
		c.ctors[e.name] = e.ctor
	}
	c.builtins = len(builtins)
	return c
}

// register applies the shared hygiene rules — a non-empty name, no
// collision with a built-in or with a name reserved elsewhere, a
// non-nil constructor, no duplicate — then files ctor under name.
func (c *catalog[C]) register(name string, ctor C, isNil bool, reserved func(string) bool) error {
	mu.Lock()
	defer mu.Unlock()
	if name == "" {
		return fmt.Errorf("registry: empty %s name", c.kind)
	}
	if slices.Contains(c.names[:c.builtins], name) || reserved != nil && reserved(name) {
		return fmt.Errorf("registry: %s %q collides with a built-in (pick a new name)", c.kind, name)
	}
	if isNil {
		return fmt.Errorf("registry: %s %q: nil constructor", c.kind, name)
	}
	if _, dup := c.ctors[name]; dup {
		return fmt.Errorf("registry: %s %q already registered", c.kind, name)
	}
	i, _ := slices.BinarySearch(c.names[c.builtins:], name)
	c.names = slices.Insert(c.names, c.builtins+i, name)
	c.ctors[name] = ctor
	return nil
}

func (c *catalog[C]) lookup(name string) (C, bool) {
	mu.RLock()
	ctor, ok := c.ctors[name]
	mu.RUnlock()
	return ctor, ok
}

func (c *catalog[C]) list() []string {
	mu.RLock()
	defer mu.RUnlock()
	return slices.Clone(c.names)
}

// reset drops every registration, keeping the built-ins.
func (c *catalog[C]) reset() {
	for _, name := range c.names[c.builtins:] {
		delete(c.ctors, name)
	}
	c.names = c.names[:c.builtins:c.builtins]
}

var (
	mu sync.RWMutex

	policies = newCatalog("policy",
		entry[func() mimicos.AllocPolicy]{"bd", func() mimicos.AllocPolicy { return &mimicos.BuddyPolicy{} }},
		entry[func() mimicos.AllocPolicy]{"thp", func() mimicos.AllocPolicy { return &mimicos.LinuxTHPPolicy{} }},
		entry[func() mimicos.AllocPolicy]{"cr-thp", func() mimicos.AllocPolicy {
			return &mimicos.ReservationTHPPolicy{UpgradeFrac: 0.5, PolicyName: "CR-THP"}
		}},
		entry[func() mimicos.AllocPolicy]{"ar-thp", func() mimicos.AllocPolicy {
			return &mimicos.ReservationTHPPolicy{UpgradeFrac: 0.1, PolicyName: "AR-THP"}
		}},
		entry[func() mimicos.AllocPolicy]{"utopia", func() mimicos.AllocPolicy { return &mimicos.UtopiaPolicy{} }},
		entry[func() mimicos.AllocPolicy]{"eager", func() mimicos.AllocPolicy { return &mimicos.EagerPolicy{} }},
	)

	tierPolicies = newCatalog("tier policy",
		entry[func() tier.Policy]{tier.PolicyClock, func() tier.Policy { return tier.NewClock() }},
		entry[func() tier.Policy]{tier.PolicyHotCold, func() tier.Policy { return tier.NewHotCold() }},
	)

	designs = newCatalog("design",
		entry[Design]{"radix", Design{New: func(e DesignEnv) mmu.Design { return e.NewRadix() }}},
		entry[Design]{"ech", Design{PTKind: mimicos.PTECH, New: hashWalker}},
		entry[Design]{"hdc", Design{PTKind: mimicos.PTHDC, New: hashWalker}},
		entry[Design]{"ht", Design{PTKind: mimicos.PTHT, New: hashWalker}},
		entry[Design]{"utopia", Design{New: func(e DesignEnv) mmu.Design {
			return mmu.NewUtopiaDesign(e.OS.Utopia, e.NewRadix(), e.Mem)
		}}},
		entry[Design]{"rmm", Design{Attach: (*mimicos.Kernel).EnableRMM, New: func(e DesignEnv) mmu.Design {
			return mmu.NewRMMDesign(e.Proc.RMM, e.NewRadix(), e.Mem, e.Proc.ASID)
		}}},
		entry[Design]{"midgard", Design{Attach: (*mimicos.Kernel).EnableMidgard, New: func(e DesignEnv) mmu.Design {
			return mmu.NewMidgardDesign(e.Proc.Midgard, e.NewRadix(), e.Mem, e.Proc.ASID)
		}}},
		entry[Design]{"directseg", Design{New: func(e DesignEnv) mmu.Design {
			return &mmu.DirectSegDesign{Radix: e.NewRadix()}
		}}},
		entry[Design]{"nested", Design{New: func(e DesignEnv) mmu.Design {
			return mmu.NewNestedDesign(e.Proc.PT, e.Host, e.Mem)
		}}},
	)

	loads = newCatalog[func(workloads.Params) (*workloads.Workload, error)]("workload")
)

func hashWalker(e DesignEnv) mmu.Design { return mmu.NewHashWalker(e.Proc.PT, e.Mem) }

// RegisterPolicy registers an allocation-policy constructor under name.
// The constructor runs once per simulated system, so stateful policies
// never share state between concurrent sweep points. It rejects empty
// or duplicate names and names colliding with a built-in policy.
func RegisterPolicy(name string, ctor func() mimicos.AllocPolicy) error {
	return policies.register(name, ctor, ctor == nil, nil)
}

// NewPolicy constructs a fresh instance of the named policy, or reports
// false for an unknown name.
func NewPolicy(name string) (mimicos.AllocPolicy, bool) {
	ctor, ok := policies.lookup(name)
	if !ok {
		return nil, false
	}
	return ctor(), true
}

// PolicyNames returns every policy name: the built-ins in catalog
// order, then the registered names sorted.
func PolicyNames() []string { return policies.list() }

// RegisterTierPolicy registers a tier-migration-policy constructor
// under name. The constructor runs once per simulated system (tier
// policies can be stateful); the usual hygiene rules apply.
func RegisterTierPolicy(name string, ctor func() tier.Policy) error {
	return tierPolicies.register(name, ctor, ctor == nil, nil)
}

// NewTierPolicy constructs a fresh instance of the named tier policy,
// or reports false for an unknown name.
func NewTierPolicy(name string) (tier.Policy, bool) {
	ctor, ok := tierPolicies.lookup(name)
	if !ok {
		return nil, false
	}
	return ctor(), true
}

// TierPolicyNames returns every tier policy name: the built-ins in
// catalog order, then the registered names sorted.
func TierPolicyNames() []string { return tierPolicies.list() }

// RegisterDesign registers a translation-design constructor under name.
// The constructor runs once per process (every process owns its design
// instance, the state a CR3 write switches) over radix page tables.
// Same hygiene rules as RegisterPolicy.
func RegisterDesign(name string, ctor func(DesignEnv) mmu.Design) error {
	return designs.register(name, Design{New: ctor}, ctor == nil, nil)
}

// LookupDesign returns the named design's catalog entry, or reports
// false for an unknown name.
func LookupDesign(name string) (Design, bool) { return designs.lookup(name) }

// DesignNames returns every design name: the built-ins in catalog
// order, then the registered names sorted.
func DesignNames() []string { return designs.list() }

// RegisterWorkload registers a workload constructor under name. The
// constructor is invoked with the session's (or sweep point's) explicit
// construction parameters and must return a fresh *Workload each call —
// workload state is mutated during a run and is never shared between
// concurrent points. The name must not shadow a catalog workload (the
// Table 5 suites or the mix extras, under any of their accepted
// spellings).
func RegisterWorkload(name string, ctor func(workloads.Params) (*workloads.Workload, error)) error {
	inCatalog := func(n string) bool { _, ok := workloads.ByName(n); return ok }
	return loads.register(name, ctor, ctor == nil, inCatalog)
}

// NewWorkload builds the registered workload with the given parameters.
// ok reports whether the name is registered at all; err is the
// constructor's failure when it is.
func NewWorkload(name string, p workloads.Params) (w *workloads.Workload, ok bool, err error) {
	ctor, ok := loads.lookup(name)
	if !ok {
		return nil, false, nil
	}
	w, err = ctor(p)
	return w, true, err
}

// WorkloadNames returns the registered workload names, sorted.
func WorkloadNames() []string { return loads.list() }

// reset drops every registration, keeping the built-ins — test hook
// only (see export_test.go).
func reset() {
	mu.Lock()
	defer mu.Unlock()
	policies.reset()
	tierPolicies.reset()
	designs.reset()
	loads.reset()
}
