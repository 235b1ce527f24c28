// Package obs is the repository's guarantee-audit telemetry layer: a
// dependency-free (stdlib-only) metrics core designed for the
// nanosecond-scale hot paths of the pacer and the packet simulator.
//
// Design rules, in order:
//
//  1. Zero allocations per observation. All per-metric state is
//     preallocated at registration time; Observe/Add/Set touch only
//     plain fields.
//  2. Pay-for-what-you-touch. Every metric type is nil-safe: a nil
//     *Counter/*Gauge/*Histogram is a valid, fully disabled metric
//     whose methods cost exactly one branch. A nil *Registry hands out
//     nil metrics, so instrumented code needs no build tags and no
//     wrapper interfaces — the disabled path is `if m == nil { return }`
//     inlined at the call site. BenchmarkObsOverhead asserts both
//     properties.
//  3. One goroutine. Every plane — metrics, auditor, SLO recorder,
//     incident correlation — is written and read on the
//     goroutine that drives the run (the simulation's, or an offline
//     tool's), and is read from a run's artifacts after it. Nothing here locks or uses
//     atomics, and nothing here is safe for concurrent use.
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
	"math/bits"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil Counter is a disabled metric (one branch per
// Add).
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n (n must be >= 0 for the Prometheus counter contract; this
// is not enforced on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous value. A nil Gauge is disabled.
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the bucket count: bits.Len64 of an int64 is at most
// 63, plus bucket 0 for non-positive observations.
const histBuckets = 64

// Histogram is a power-of-two-bucket histogram. The zero value is
// ready to use; a nil Histogram is a disabled metric.
//
// Observe performs no allocation: one bucket increment, a sum add, and
// two comparisons for the exact extremes.
type Histogram struct {
	counts     [histBuckets]int64
	sum, count int64
	// min and max are the exact extremes, meaningful once count > 0.
	min, max int64
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
	h.counts[bucketIndex(v)]++
	h.sum += v
	if h.count == 0 || v > h.max {
		h.max = v
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Buckets returns a copy of the non-cumulative bucket array.
func (h *Histogram) Buckets() [histBuckets]int64 {
	if h == nil {
		return [histBuckets]int64{}
	}
	return h.counts
}
