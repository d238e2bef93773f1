package tier

// Policy decides page migration: how heat evolves on touches and scan
// decays, which pages a tier eviction may take, and how deep a DRAM
// demotion lands. Methods are pure value transforms — the policy holds
// no per-page state — which keeps custom policies trivially
// deterministic and makes the public extension adapter (repro/ext) a
// direct passthrough.
//
// Heat is MimicOS's imitation of access-bit tracking: the kernel
// cannot observe individual loads (they retire inside the core model),
// so Touch fires on the events the kernel does see — the fault that
// maps a page and the fault that promotes it — and Decay fires during
// the periodic resident-set scans driven by the fault clock. Heat is
// therefore a recency-of-fault estimate, the same signal Linux's
// hot-page promotion derives from NUMA hint faults.
type Policy interface {
	// Name is the display name reported in metrics.
	Name() string
	// Touch returns the new heat after the page is touched (mapped or
	// promoted by a fault).
	Touch(heat uint32) uint32
	// Decay returns the new heat after one access-bit scan pass found
	// the page idle.
	Decay(heat uint32) uint32
	// Victim reports whether a page of the given heat may be evicted on
	// this scan pass (pass 0 is selective; pass 1 is the desperate pass
	// and should almost always return true).
	Victim(heat uint32, pass int) bool
	// DemoteTo returns the slow-tier index (0 = fastest) a DRAM page of
	// the given heat demotes into, given slowTiers configured tiers.
	DemoteTo(slowTiers int, heat uint32) int
}

// Built-in migration policy names.
const (
	PolicyHotCold = "hotcold"
	PolicyClock   = "clock"
)

// HotCold is the default migration policy: a saturating heat counter
// with multi-bit hysteresis. Touches add TouchStep (capped at MaxHeat),
// scans halve; pages at or below ColdAt are cold — eligible victims on
// the selective pass, and demoted straight to the deepest tier, while
// warmer pages demote only one level down (to the fastest slow tier).
type HotCold struct {
	TouchStep uint32
	MaxHeat   uint32
	ColdAt    uint32
}

// NewHotCold returns the default-calibrated hot/cold policy: heat 8 per
// touch, cap 64, cold at ≤2 (three idle scans after a single touch).
func NewHotCold() *HotCold { return &HotCold{TouchStep: 8, MaxHeat: 64, ColdAt: 2} }

// Name implements Policy.
func (h *HotCold) Name() string { return PolicyHotCold }

// Touch implements Policy.
func (h *HotCold) Touch(heat uint32) uint32 {
	if heat >= h.MaxHeat-h.TouchStep {
		return h.MaxHeat
	}
	return heat + h.TouchStep
}

// Decay implements Policy.
func (h *HotCold) Decay(heat uint32) uint32 { return heat / 2 }

// Victim implements Policy.
func (h *HotCold) Victim(heat uint32, pass int) bool {
	if pass > 0 {
		return true
	}
	return heat <= h.ColdAt
}

// DemoteTo implements Policy.
func (h *HotCold) DemoteTo(slowTiers int, heat uint32) int {
	if heat <= h.ColdAt {
		return slowTiers - 1 // cold: skip to the deepest tier
	}
	return 0 // warm: nearest tier, cheap to promote back
}

// Clock is the minimal one-bit policy (CLOCK / second chance): a touch
// sets the referenced bit, a scan clears it, unreferenced pages are
// victims, and demotion always lands in the nearest tier.
type Clock struct{}

// NewClock returns the CLOCK policy.
func NewClock() *Clock { return &Clock{} }

// Name implements Policy.
func (c *Clock) Name() string { return PolicyClock }

// Touch implements Policy.
func (c *Clock) Touch(uint32) uint32 { return 1 }

// Decay implements Policy.
func (c *Clock) Decay(uint32) uint32 { return 0 }

// Victim implements Policy.
func (c *Clock) Victim(heat uint32, pass int) bool { return pass > 0 || heat == 0 }

// DemoteTo implements Policy.
func (c *Clock) DemoteTo(int, uint32) int { return 0 }
