// Package obs is the repository's guarantee-audit telemetry layer: a
// dependency-free (stdlib-only) metrics core designed for the
// nanosecond-scale hot paths of the pacer and the packet simulator.
//
// Design rules, in order:
//
//  1. Zero allocations per observation. All per-metric state is
//     preallocated at registration time; Observe/Add/Set touch only
//     atomics.
//  2. Pay-for-what-you-touch. Every metric type is nil-safe: a nil
//     *Counter/*Gauge/*Histogram is a valid, fully disabled metric
//     whose methods cost exactly one branch. A nil *Registry hands out
//     nil metrics, so instrumented code needs no build tags and no
//     wrapper interfaces — the disabled path is `if m == nil { return }`
//     inlined at the call site. BenchmarkObsOverhead asserts both
//     properties.
//  3. Readable mid-run without locks. A live /metrics scrape or a
//     wall-clock rollup capture reads metrics from another goroutine
//     while they are written, so counters and gauges are single atomics
//     and histograms atomic buckets, sharded across cache lines so
//     concurrent observers do not serialize on one line.
//
// Histograms use power-of-two buckets: bucket i counts observations v
// with 2^(i-1) <= v < 2^i (bucket 0 absorbs v <= 0). Delay and latency
// metrics in this repository record microseconds, so the buckets read
// "<=1µs, <=3µs, <=7µs, <=15µs, ..." — coarse at the top, fine exactly
// where sub-millisecond SLOs live. Exact extremes (min/max/sum) are
// tracked to full precision alongside the buckets, so guarantee audits
// never depend on bucket resolution.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter is a disabled metric (one branch per
// Add).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0 for the Prometheus counter contract; this
// is not enforced on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil Gauge is disabled.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value
// (a lock-free high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count: bits.Len64 of an int64 is at most
// 63, plus bucket 0 for non-positive observations.
const histBuckets = 64

// histShards spreads bucket increments across cache lines. Four are
// plenty: the simulator and the (serial) placement search each observe
// from one goroutine, so only a library caller observing from several
// goroutines at once ever spreads across them.
const histShards = 4

// histShard is one shard's bucket array, padded to avoid false sharing
// with its neighbors.
type histShard struct {
	counts [histBuckets]atomic.Int64
	_      [64]byte
}

// Histogram is a lock-free power-of-two-bucket histogram. The zero
// value is ready to use; a nil Histogram is a disabled metric.
//
// Observe performs no allocation and no locking: one bucket increment
// (sharded), a sum add, and two bounded CAS loops for min/max.
type Histogram struct {
	shards [histShards]histShard
	sum    atomic.Int64
	count  atomic.Int64
	// max and min hold order-mapped values (see ordMap): the mapping
	// makes the zero value the identity of a CAS-max, so the zero
	// Histogram needs no seeding step and racing first observations
	// cannot clobber each other.
	max atomic.Uint64
	min atomic.Uint64 // complemented order-map, so CAS-max tracks the minimum
}

// ordMap maps int64 to uint64 preserving order (MinInt64 -> 0), so
// "larger observation" and "larger mapped value" coincide.
func ordMap(v int64) uint64 { return uint64(v) ^ (1 << 63) }

func ordUnmap(u uint64) int64 { return int64(u ^ (1 << 63)) }

// casMax raises a to v if v is larger.
func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// bucketIndex maps an observation to its bucket: 0 for v <= 0, else
// floor(log2(v))+1, so bucket i spans [2^(i-1), 2^i).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpperBound returns the inclusive upper bound of bucket i
// (the largest value the bucket admits): 0 for bucket 0, 2^i - 1
// otherwise.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<62 - 1 + 1<<62 // MaxInt64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Shard selection: spread by a cheap multiplicative hash of the
	// value. Under contention any spread works; under a single
	// goroutine (the discrete-event simulator) sharding is free.
	s := (uint64(v) * 0x9e3779b97f4a7c15) >> 62
	h.shards[s].counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	casMax(&h.max, ordMap(v))
	casMax(&h.min, ^ordMap(v))
	// Count goes last so a reader that sees count > 0 also sees a
	// fully recorded extreme.
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return ordUnmap(h.max.Load())
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return ordUnmap(^h.min.Load())
}

// Buckets merges the shards into one non-cumulative bucket array.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for s := range h.shards {
		for i := range out {
			out[i] += h.shards[s].counts[i].Load()
		}
	}
	return out
}

// Quantile estimates the q-th quantile (q in [0,1]) from the buckets,
// returning each bucket's upper bound. Exact at the extremes (q=0 and
// q=1 return the tracked min/max); within a bucket the upper bound is
// reported, making the estimate conservative for SLO auditing.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	// Nearest-rank: the smallest value with at least ceil(q*n)
	// observations at or below it. Truncating here instead of taking
	// the ceiling would bias every fractional rank one observation low
	// (e.g. the median of 3 observations would read the 1st, not the
	// 2nd).
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	buckets := h.Buckets()
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			ub := BucketUpperBound(i)
			if mx := h.Max(); ub > mx {
				ub = mx // the top occupied bucket can't exceed the exact max
			}
			return ub
		}
	}
	return h.Max()
}
