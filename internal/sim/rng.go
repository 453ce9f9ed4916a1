package sim

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64*),
// embedded rather than math/rand so that simulation streams are stable
// across Go releases and cheap to fork per component. The zero value is
// not valid; use NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant (xorshift state must be non-zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := &RNG{state: seed}
	// Warm up so close seeds diverge immediately.
	for i := 0; i < 8; i++ {
		r.Uint64()
	}
	return r
}

// Fork derives an independent generator keyed by label, so each simulation
// component (loss process, delay jitter, ...) gets its own
// stream and adding a consumer never perturbs the others.
func (r *RNG) Fork(label string) *RNG {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(r.Uint64() ^ h)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Geometric returns a geometric random variable on {1, 2, ...} with
// success probability p (mean 1/p). p outside (0, 1] is clamped.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		p = 1e-12
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return 1 + int(math.Floor(math.Log(u)/math.Log(1-p)))
}

// Normal returns a normally distributed value (Box-Muller) with the given
// mean and standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + std*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}
