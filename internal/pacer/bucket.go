// Package pacer implements Silo's hypervisor packet pacer (paper §4.3,
// §5): a hierarchy of virtual token buckets that shapes each VM's
// traffic to its {B, S, Bmax} guarantee, and Paced IO Batching, which
// preserves NIC I/O batching while spacing data packets at
// sub-microsecond granularity by interleaving "void" packets — frames
// addressed MAC-source == MAC-destination that the first-hop switch
// drops.
//
// Buckets are "virtual": they never sleep or poll. Each packet is
// stamped with the earliest wall-clock nanosecond at which it may
// leave the NIC, and the batcher lays packets out on the wire so each
// departs at its stamp (to within one minimum-size void frame,
// 84 bytes — 67.2 ns at 10 GbE). This mirrors the paper's Windows
// filter-driver design, where the only state per packet is an 8-byte
// timestamp.
//
// Time is int64 nanoseconds throughout; rates are bytes per second.
package pacer

import (
	"fmt"
	"math"
)

// TokenBucket is a virtual token bucket with rate (bytes/sec) and
// capacity (bytes). Instead of draining in real time it answers, for
// each packet, the earliest release timestamp that keeps cumulative
// output under rate·t + size, and advances its internal virtual clock.
type TokenBucket struct {
	rate float64 // bytes per second; <= 0 means unlimited
	size float64 // bucket capacity in bytes

	tokens float64 // tokens available at time `last`
	last   int64   // ns at which `tokens` was computed
}

// NewTokenBucket returns a bucket that starts full at time start.
func NewTokenBucket(rate, size float64, start int64) *TokenBucket {
	return &TokenBucket{rate: rate, size: size, tokens: size, last: start}
}

// SetRate changes the drain rate (used by the hose coordinator to
// retune per-destination buckets). Tokens accrued so far are
// preserved.
func (b *TokenBucket) SetRate(now int64, rate float64) {
	b.refill(now)
	b.rate = rate
}

// refill advances the token count to time now.
func (b *TokenBucket) refill(now int64) {
	if now <= b.last {
		return
	}
	if b.rate > 0 {
		b.tokens += b.rate * float64(now-b.last) / 1e9
		if b.tokens > b.size {
			b.tokens = b.size
		}
	} else {
		b.tokens = b.size
	}
	b.last = now
}

// Free returns the earliest time >= t at which the bucket can release
// n bytes, without mutating state: the moment the balance reaches n.
// Used by the VM scheduler's feasibility pass.
func (b *TokenBucket) Free(t int64, n int) int64 {
	if b.rate <= 0 {
		return t
	}
	tokens := b.tokens
	if t > b.last {
		tokens += b.rate * float64(t-b.last) / 1e9
		if tokens > b.size {
			tokens = b.size
		}
	} else {
		t = b.last
	}
	need := float64(n)
	if need > b.size {
		need = b.size // oversize frames release at a full bucket
	}
	if tokens >= need {
		return t
	}
	wait := (need - tokens) / b.rate * 1e9
	return t + int64(math.Ceil(wait))
}

// Commit consumes n bytes at time r (obtained from Free). The caller
// guarantees commits happen in nondecreasing r order.
func (b *TokenBucket) Commit(r int64, n int) {
	if b.rate <= 0 {
		if r > b.last {
			b.last = r
		}
		return
	}
	b.refill(r)
	b.tokens -= float64(n)
	// Oversize frames (n > size) legitimately overdraw; clamp mild
	// float undershoot only.
	if b.tokens < 0 && float64(n) <= b.size {
		if b.tokens > -1e-6 {
			b.tokens = 0
		}
	}
}

// Conformance checking (used by tests and the simulator to assert the
// headline invariant: paced output never exceeds B·t + S in any
// window).

// ConformanceChecker verifies a packet timestamp sequence against an
// arrival curve rate·t + burst.
type ConformanceChecker struct {
	rate  float64
	burst float64
	// events holds (ns, cumulative bytes) pairs.
	times []int64
	bytes []int64
	total int64
}

// NewConformanceChecker returns a checker for the given curve.
func NewConformanceChecker(rate, burst float64) *ConformanceChecker {
	return &ConformanceChecker{rate: rate, burst: burst}
}

// Observe records a packet of n bytes released at time ns.
func (c *ConformanceChecker) Observe(ns int64, n int) {
	c.total += int64(n)
	c.times = append(c.times, ns)
	c.bytes = append(c.bytes, c.total)
}

// Check returns an error if any window [t_i, t_j] carried more than
// rate·(t_j − t_i) + burst bytes. slack absorbs the ±1 ns rounding of
// Free.
func (c *ConformanceChecker) Check(slack float64) error {
	for i := 0; i < len(c.times); i++ {
		// Bytes sent strictly before i.
		var before int64
		if i > 0 {
			before = c.bytes[i-1]
		}
		for j := i; j < len(c.times); j++ {
			sent := float64(c.bytes[j] - before)
			window := float64(c.times[j]-c.times[i]) / 1e9
			allowed := c.rate*window + c.burst + slack
			if sent > allowed {
				return fmt.Errorf("pacer: window [%d,%d]ns carried %.0f bytes > allowed %.0f",
					c.times[i], c.times[j], sent, allowed)
			}
		}
	}
	return nil
}
