package virtuoso_test

import (
	"slices"
	"strings"
	"testing"

	virtuoso "repro"
	"repro/ext"
	"repro/internal/registry"
)

// TestComponentCatalog pins the component catalog to the public
// constants: every exported Design*, Policy* and TierPolicy* constant
// is a built-in — it parses, it constructs, Known* lists it in catalog
// order ahead of any registration, and registering it through ext fails
// as a collision — while names that are not built-ins stay free.
func TestComponentCatalog(t *testing.T) {
	kinds := []struct {
		kind     string
		builtins []string
		known    func() []string
		parse    func(string) error
		build    func(string) bool
		// register registers name through ext, with a working
		// constructor or a nil one.
		register func(name string, nilCtor bool) error
	}{
		{
			kind: "design",
			builtins: strs(virtuoso.DesignRadix, virtuoso.DesignECH, virtuoso.DesignHDC,
				virtuoso.DesignHT, virtuoso.DesignUtopia, virtuoso.DesignRMM,
				virtuoso.DesignMidgard, virtuoso.DesignDirectSeg, virtuoso.DesignNested),
			known: func() []string { return strs(virtuoso.KnownDesigns()...) },
			parse: func(n string) error { _, err := virtuoso.ParseDesign(n); return err },
			build: func(n string) bool { d, ok := registry.LookupDesign(n); return ok && d.New != nil },
			register: func(n string, nilCtor bool) error {
				if nilCtor {
					return ext.RegisterDesign(n, nil)
				}
				return ext.RegisterDesign(n, func(ext.DesignEnv) ext.TranslationDesign { return nil })
			},
		},
		{
			kind: "policy",
			builtins: strs(virtuoso.PolicyBuddy, virtuoso.PolicyTHP, virtuoso.PolicyCRTHP,
				virtuoso.PolicyARTHP, virtuoso.PolicyUtopia, virtuoso.PolicyEager),
			known: func() []string { return strs(virtuoso.KnownPolicies()...) },
			parse: func(n string) error { _, err := virtuoso.ParsePolicy(n); return err },
			build: func(n string) bool { p, ok := registry.NewPolicy(n); return ok && p != nil },
			register: func(n string, nilCtor bool) error {
				if nilCtor {
					return ext.RegisterPolicy(n, nil)
				}
				return ext.RegisterPolicy(n, func() ext.AllocPolicy { return nil })
			},
		},
		{
			kind:     "tier policy",
			builtins: []string{virtuoso.TierPolicyClock, virtuoso.TierPolicyHotCold},
			known:    virtuoso.KnownTierPolicies,
			parse:    func(n string) error { _, err := virtuoso.ParseTierPolicy(n); return err },
			build:    func(n string) bool { p, ok := registry.NewTierPolicy(n); return ok && p.Name() == n },
			register: func(n string, nilCtor bool) error {
				if nilCtor {
					return ext.RegisterTierPolicy(n, nil)
				}
				return ext.RegisterTierPolicy(n, func() ext.TierPolicy { return nil })
			},
		},
	}
	for _, k := range kinds {
		t.Run(k.kind, func(t *testing.T) {
			if known := k.known(); len(known) < len(k.builtins) || !slices.Equal(known[:len(k.builtins)], k.builtins) {
				t.Errorf("Known = %v, want the built-ins %v first", known, k.builtins)
			}
			for _, name := range k.builtins {
				if err := k.parse(name); err != nil {
					t.Errorf("%q does not parse: %v", name, err)
				}
				if !k.build(name) {
					t.Errorf("%q does not construct", name)
				}
				if err := k.register(name, false); err == nil || !strings.Contains(err.Error(), "collides with a built-in") {
					t.Errorf("registering built-in %q: err = %v, want the collision error", name, err)
				}
			}
			// Nothing beyond the real built-ins is reserved: the
			// registration fails on the empty name or the nil
			// constructor, never as a collision, and nothing is filed.
			for _, name := range []string{"", "bogus", "BFS"} {
				if err := k.register(name, true); err == nil || strings.Contains(err.Error(), "collides") {
					t.Errorf("registering %q with a nil constructor: err = %v, want a non-collision error", name, err)
				}
				if slices.Contains(k.known(), name) {
					t.Errorf("%q is listed as known", name)
				}
				if name != "" && k.parse(name) == nil {
					t.Errorf("%q parses", name)
				}
			}
		})
	}
}

func strs[N ~string](names ...N) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return out
}
