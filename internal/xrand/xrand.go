// Package xrand provides a small, fast, deterministic PRNG (SplitMix64)
// used across the simulator. Determinism across Go releases matters here:
// every experiment must be exactly reproducible from its seed, so we avoid
// math/rand's unspecified algorithm.
package xrand

// Rand is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64n returns a pseudo-random value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n(0)")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Hash64 deterministically mixes v with seed; useful for stateless
// per-index decisions (e.g., which 2 MB blocks to break when initialising
// fragmentation).
func Hash64(v, seed uint64) uint64 {
	z := v + seed*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
