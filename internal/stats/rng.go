// Package stats provides deterministic random number generation,
// distribution samplers, and summary statistics (percentiles, CDFs,
// histograms) used by the Silo workload generators, simulators and
// benchmark harness.
//
// Everything here is deterministic given a seed, so every experiment in
// the repository is exactly reproducible.
package stats

import (
	"math"
	"slices"
)

// Rand is a small, fast, deterministic PRNG (splitmix64 core with an
// xorshift-style output mix). It is not safe for concurrent use; create
// one per goroutine, deriving child seeds with Split.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams on all platforms.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new independent generator from r. The derived stream
// is a function of r's current state, so calling Split at different
// points yields different children.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// PermInto writes a pseudo-random permutation of [0, n) into p's
// storage, growing it if needed, and returns it.
func (r *Rand) PermInto(p []int, n int) []int {
	p = slices.Grow(p[:0], n)[:n]
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Exp returns an exponentially distributed value with the given mean.
// Used for Poisson inter-arrival times.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	// Avoid log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// GenPareto samples the generalized Pareto distribution GPD(loc, scale,
// shape) via inverse-transform sampling. The Facebook ETC workload paper
// (Atikoglu et al., SIGMETRICS 2012) models memcached value sizes and
// inter-arrival gaps with this family; Silo §6.1 generates its
// memcached workload from the same fits.
func (r *Rand) GenPareto(loc, scale, shape float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	if shape == 0 {
		return loc - scale*math.Log(1-u)
	}
	return loc + scale*(math.Pow(1-u, -shape)-1)/shape
}
