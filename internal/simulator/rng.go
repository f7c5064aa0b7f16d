package simulator

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64-based)
// used throughout the simulator so that every experiment is reproducible
// from a seed without depending on math/rand ordering guarantees.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed zero is remapped so the
// stream is never degenerate.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simulator: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value via Box-Muller.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)); mu and sigma are the parameters
// of the underlying normal, not the resulting distribution's mean.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Choice returns a random index weighted by the non-negative weights. If all
// weights are zero it returns a uniform index.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Split derives an independent generator, handy for giving each subsystem
// its own stream from one experiment seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
