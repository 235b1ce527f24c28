// Package workload generates the traffic patterns of the paper's
// evaluation:
//
//   - ETC: a memcached workload modeled on Facebook's ETC pool
//     (Atikoglu et al., SIGMETRICS 2012) — generalized-Pareto value
//     sizes and inter-arrival gaps, as used in §6.1;
//   - Poisson message arrivals of fixed size (Table 1's synthetic
//     application);
//   - AllToOne: the class-A OLDI partition/aggregate pattern — every
//     VM simultaneously sends a message to one aggregator (§6.2);
//   - AllToAll / Permutation-x: class-B data-parallel shuffle
//     patterns (§6.2, §6.3); AppendEdges writes Permutation-x, and
//     AllToOne, as (src, dst) edges for the flow simulator.
package workload

import (
	"repro/internal/stats"
)

// The published generalized-Pareto fits for Facebook's ETC memcached
// pool, with the paper's observed bounds (§6.1: average value ≈300 B,
// maximum ≈1 KB, average packet ≈400 B). Value sizes: GPD(loc=0,
// scale=214.476, shape=0.348238); inter-arrival gaps (per client,
// scaled by demand): GPD(loc=0, scale=16.0292 µs, shape=0.154971). Key
// sizes follow a generalized extreme-value law; we fold the ~30-byte
// mean key into the request overhead.
const (
	etcValueScale = 214.476 // bytes
	etcValueShape = 0.348238
	// ETCGapScale is the published gap scale in seconds; a generator
	// driven at another demand scales it.
	ETCGapScale = 16.0292e-6
	ETCGapShape = 0.154971
	// ETCRequestBytes is the fixed size of a GET request (key + protocol
	// overhead).
	ETCRequestBytes = 100
	// etcMaxValueBytes truncates the value tail (memcached caps at 1 MB;
	// the paper's workload sees ~1 KB maxima).
	etcMaxValueBytes = 1024
)

// Request is one generated key-value operation.
type Request struct {
	// At is the issue time in ns since epoch.
	At int64
	// ValueBytes is the response payload size.
	ValueBytes int
}

// ETCGenerator draws ETC requests.
type ETCGenerator struct {
	gapScale float64 // seconds
	rng      *stats.Rand
	now      int64
}

// NewETCGenerator returns a generator starting at time start whose
// inter-arrival gaps have the given GPD scale in seconds (ETCGapScale
// for the published fit).
func NewETCGenerator(gapScale float64, rng *stats.Rand, start int64) *ETCGenerator {
	return &ETCGenerator{gapScale: gapScale, rng: rng, now: start}
}

// Next returns the next request.
func (g *ETCGenerator) Next() Request {
	gap := g.rng.GenPareto(0, g.gapScale, ETCGapShape)
	g.now += int64(gap * 1e9)
	v := int(g.rng.GenPareto(0, etcValueScale, etcValueShape)) + 1
	if v > etcMaxValueBytes {
		v = etcMaxValueBytes
	}
	return Request{At: g.now, ValueBytes: v}
}

// ETCMeanValueBytes estimates the mean value size by sampling (the GPD
// mean scale/(1−shape) ≈ 329 B for the published fit).
func ETCMeanValueBytes(rng *stats.Rand, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		v := rng.GenPareto(0, etcValueScale, etcValueShape) + 1
		if v > etcMaxValueBytes {
			v = etcMaxValueBytes
		}
		sum += v
	}
	return sum / float64(n)
}

// PoissonMessages generates fixed-size messages with exponential
// inter-arrival times such that the long-run bandwidth is
// `bandwidthBps` (Table 1's synthetic workload: size M, average
// bandwidth B).
type PoissonMessages struct {
	SizeBytes int
	meanGapNs float64
	rng       *stats.Rand
	now       int64
}

// NewPoissonMessages returns a generator; bandwidthBps is the average
// offered load in bytes/sec.
func NewPoissonMessages(sizeBytes int, bandwidthBps float64, rng *stats.Rand, start int64) *PoissonMessages {
	return &PoissonMessages{
		SizeBytes: sizeBytes,
		meanGapNs: float64(sizeBytes) / bandwidthBps * 1e9,
		rng:       rng,
		now:       start,
	}
}

// Next returns the next message arrival time.
func (g *PoissonMessages) Next() int64 {
	g.now += int64(g.rng.Exp(g.meanGapNs))
	return g.now
}

// Pattern is a communication pattern: for each source VM index, the
// destination VM indices it sends to.
type Pattern [][]int

// AllToOne returns the class-A pattern: VMs 1..n−1 all send to VM 0.
func AllToOne(n int) Pattern {
	p := make(Pattern, n)
	for i := 1; i < n; i++ {
		p[i] = []int{0}
	}
	return p
}

// AllToAll returns the class-B shuffle: every VM sends to every other.
func AllToAll(n int) Pattern {
	p := make(Pattern, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				p[i] = append(p[i], j)
			}
		}
	}
	return p
}

// Edge is one sender→receiver pair of a pattern, in tenant-local VM
// indices.
type Edge struct{ Src, Dst int }

// AppendEdges appends the edges of an n-VM tenant's class pattern to
// dst, sources in ascending order. With allToOne they are AllToOne(n)'s.
// Otherwise they are Permutation-x's (§6.3): each VM sends to x randomly
// chosen distinct other VMs, the first x of a fresh permutation that are
// not itself, and a fractional x (e.g. 0.5) gives each VM probability
// frac(x) of one more. perm is scratch for the draws; both slices are
// returned, grown.
func AppendEdges(dst []Edge, perm []int, n int, allToOne bool, x float64, rng *stats.Rand) ([]Edge, []int) {
	if allToOne {
		for i := 1; i < n; i++ {
			dst = append(dst, Edge{i, 0})
		}
		return dst, perm
	}
	if n < 2 {
		return dst, perm
	}
	whole := int(x)
	frac := x - float64(whole)
	for i := 0; i < n; i++ {
		k := whole
		if frac > 0 && rng.Float64() < frac {
			k++
		}
		if k > n-1 {
			k = n - 1
		}
		if k == 0 {
			continue
		}
		perm = rng.PermInto(perm, n)
		for _, j := range perm {
			if j == i {
				continue
			}
			dst = append(dst, Edge{i, j})
			if k--; k == 0 {
				break
			}
		}
	}
	return dst, perm
}

// Edges counts the pattern's sender→receiver pairs.
func (p Pattern) Edges() int {
	n := 0
	for _, dsts := range p {
		n += len(dsts)
	}
	return n
}
