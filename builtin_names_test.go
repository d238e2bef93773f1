package virtuoso_test

import (
	"testing"

	virtuoso "repro"
	"repro/internal/registry"
)

// TestBuiltinNamesMatchCore pins internal/registry's duplicated
// built-in name sets to the core constants: the registry rejects
// registrations colliding with a built-in, so the two lists must never
// drift (registry cannot import core — core consults registry).
func TestBuiltinNamesMatchCore(t *testing.T) {
	designs := []virtuoso.DesignName{
		virtuoso.DesignRadix, virtuoso.DesignECH, virtuoso.DesignHDC,
		virtuoso.DesignHT, virtuoso.DesignUtopia, virtuoso.DesignRMM,
		virtuoso.DesignMidgard, virtuoso.DesignDirectSeg, virtuoso.DesignNested,
	}
	for _, d := range designs {
		if !registry.BuiltinDesign(string(d)) {
			t.Errorf("registry does not reserve built-in design %q", d)
		}
	}
	policies := []virtuoso.PolicyName{
		virtuoso.PolicyBuddy, virtuoso.PolicyTHP, virtuoso.PolicyCRTHP,
		virtuoso.PolicyARTHP, virtuoso.PolicyUtopia, virtuoso.PolicyEager,
	}
	for _, p := range policies {
		if !registry.BuiltinPolicy(string(p)) {
			t.Errorf("registry does not reserve built-in policy %q", p)
		}
	}
	tierPolicies := []string{virtuoso.TierPolicyHotCold, virtuoso.TierPolicyClock}
	for _, tp := range tierPolicies {
		if !registry.BuiltinTierPolicy(tp) {
			t.Errorf("registry does not reserve built-in tier policy %q", tp)
		}
	}
	// And nothing beyond the real built-ins is reserved.
	for _, name := range []string{"", "bogus", "BFS"} {
		if registry.BuiltinDesign(name) || registry.BuiltinPolicy(name) || registry.BuiltinTierPolicy(name) {
			t.Errorf("registry reserves non-built-in %q", name)
		}
	}
}
