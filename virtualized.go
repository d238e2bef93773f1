package virtuoso

import "repro/internal/core"

// Virtualized simulation (§6.1): Virtuoso spawns two MimicOS instances
// — a guest kernel and a hypervisor — with two-dimensional nested
// address translation between them. Exposed here so studies of
// virtualised translation (examples/virtualized) build against the
// public API alone.
type (
	// VirtualizedConfig configures the two-kernel system.
	VirtualizedConfig = core.VirtualizedConfig
	// VirtualizedSystem couples guest and hypervisor kernels over a
	// nested MMU design; both kernels' instruction streams are injected
	// into the shared core model.
	VirtualizedSystem = core.VirtualizedSystem
)

// DefaultVirtualizedConfig returns a small two-level system.
func DefaultVirtualizedConfig() VirtualizedConfig {
	return core.DefaultVirtualizedConfig()
}

// NewVirtualizedSystem wires guest and hypervisor kernels over a nested
// MMU design per cfg. It returns an error when the cache geometry is
// invalid.
func NewVirtualizedSystem(cfg VirtualizedConfig) (*VirtualizedSystem, error) {
	return core.NewVirtualizedSystem(cfg)
}
