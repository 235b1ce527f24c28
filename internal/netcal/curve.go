// Package netcal implements the fragment of network calculus Silo's
// placement manager relies on (paper §4.2.2, after Cruz and Kurose).
//
// Traffic sources are described by concave, piecewise-linear arrival
// curves A(t): an upper bound on the bytes a source may emit in any
// interval of length t. Switch ports are described by service curves.
// The maximum horizontal deviation between an arrival curve and a
// service curve is the port's queue bound — the worst-case queuing
// delay — and the maximum vertical deviation is the worst-case backlog.
//
// Silo uses three curve constructions:
//
//   - the token-bucket curve A_{B,S}(t) = B·t + S, optionally capped by
//     a peak rate Bmax: A'(t) = min(Bmax·t + MTU, B·t + S);
//   - hose-model aggregation of m same-tenant curves crossing a link:
//     A_{min(m,N−m)·B, m·S} (bandwidth is destination-limited, bursts
//     are not);
//   - propagation through a port of queue capacity c: an A_{B,S} input
//     egresses as A_{B, B·c+S} (Kurose's bound, loosened to be
//     independent of competing traffic).
//
// All rates are bytes/second and times are seconds, so curves evaluate
// to bytes. Curves are immutable once built.
package netcal

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Segment is one linear piece of a curve: starting at time X the curve
// has value Y and slope Rate until the next segment's X.
type Segment struct {
	X    float64 // start time (seconds)
	Y    float64 // value at X (bytes)
	Rate float64 // slope (bytes/second)
}

// Curve is a nondecreasing piecewise-linear function of time. Arrival
// curves built by this package are additionally concave (their segment
// rates are nonincreasing), which Add, Hose and Propagate preserve.
// The zero value is the zero function.
type Curve struct {
	segs []Segment
}

// NewTokenBucket returns the arrival curve A(t) = rate·t + burst
// (the paper's A_{B,S}). rate and burst must be nonnegative.
func NewTokenBucket(rate, burst float64) Curve {
	if rate < 0 || burst < 0 {
		panic("netcal: negative rate or burst")
	}
	return Curve{segs: []Segment{{X: 0, Y: burst, Rate: rate}}}
}

// NewRateCapped returns the curve the implementation uses (the paper's
// A′, Figure 6a): traffic is bounded both by the token bucket
// {rate, burst} and by the peak rate cap:
//
//	A′(t) = min(peak·t + seed, rate·t + burst)
//
// seed is the instantaneous burst at the peak rate — one MTU for a
// single VM (a packet is released back-to-back at wire speed). The
// curve has two pieces when the lines cross at some t > 0 and is the
// lower line alone otherwise (minOfLines).
func NewRateCapped(rate, burst, peak, seed float64) Curve {
	return Curve{segs: appendCapped(make([]Segment, 0, 2), rate, burst, peak, seed)}
}

// minOfLines reduces min(peak·t + seed, rate·t + burst) to the pieces
// that are ever the minimum: the line that is lower at t = 0, value y0
// and slope r0, and, if the other line is less steep, that line from
// their crossing (tx, yx) on with slope r1; tx == 0 means one line is
// the whole minimum. Every construction and closed-form bound of the
// rate-capped curve reads this one reduction, so a materialized curve
// and a closed form cannot disagree on which line binds, and since each
// piece is one of the two lines, lowering any of the four scalars never
// raises the curve.
func minOfLines(rate, burst, peak, seed float64) (y0, r0, tx, yx, r1 float64) {
	y0, r0, y1, r1 := seed, peak, burst, rate
	if y1 < y0 || (y1 == y0 && r1 < r0) {
		y0, r0, y1, r1 = y1, r1, y0, r0
	}
	if r1 >= r0 {
		return y0, r0, 0, 0, 0
	}
	tx = (y1 - y0) / (r0 - r1)
	return y0, r0, tx, y0 + r0*tx, r1
}

// appendCapped appends the pieces of the rate-capped curve to segs.
func appendCapped(segs []Segment, rate, burst, peak, seed float64) []Segment {
	y0, r0, tx, yx, r1 := minOfLines(rate, burst, peak, seed)
	segs = append(segs, Segment{X: 0, Y: y0, Rate: r0})
	if tx > 0 {
		segs = append(segs, Segment{X: tx, Y: yx, Rate: r1})
	}
	return segs
}

// NewWFQService returns the Parekh-Gallagher service curve a flow
// with the given weight share receives from a weighted-fair-queuing
// scheduler (paper refs [29,30]): a rate-latency curve with
// R = share·linkRate and T = maxPkt/linkRate (one maximum-size packet
// of scheduling latency). Silo deliberately assumes plain FIFO
// switches — this curve exists for comparing how much tighter
// per-flow bounds would be with WFQ hardware.
func NewWFQService(linkRate, share, maxPktBytes float64) Curve {
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	latency := 0.0
	if linkRate > 0 {
		latency = maxPktBytes / linkRate
	}
	return NewRateLatency(share*linkRate, latency)
}

// NewRateLatency returns the service curve β(t) = max(0, rate·(t −
// latency)), the standard model of a switch output port that serves at
// `rate` after a scheduling latency.
func NewRateLatency(rate, latency float64) Curve {
	if latency <= 0 {
		return Curve{segs: []Segment{{X: 0, Y: 0, Rate: rate}}}
	}
	return Curve{segs: []Segment{
		{X: 0, Y: 0, Rate: 0},
		{X: latency, Y: 0, Rate: rate},
	}}
}

// Arena is a bump allocator for Segment slices, amortizing the cost of
// building many short-lived curves (e.g. re-materializing every
// admitted tenant's contribution during an invariant sweep). Curves
// built from an arena alias its backing storage and remain valid until
// the next Reset; the arena is not safe for concurrent use.
type Arena struct {
	buf []Segment
}

// Reset discards all curves built from the arena, retaining capacity.
// When the buffer grows instead, curves built earlier keep the old
// backing array, which stays alive and unchanged until they are dropped.
func (a *Arena) Reset() { a.buf = a.buf[:0] }

// TokenBucket is NewTokenBucket backed by the arena.
func (a *Arena) TokenBucket(rate, burst float64) Curve {
	if rate < 0 || burst < 0 {
		panic("netcal: negative rate or burst")
	}
	n := len(a.buf)
	a.buf = append(a.buf, Segment{X: 0, Y: burst, Rate: rate})
	return Curve{segs: a.buf[n:]}
}

// RateCapped is NewRateCapped backed by the arena.
func (a *Arena) RateCapped(rate, burst, peak, seed float64) Curve {
	n := len(a.buf)
	a.buf = appendCapped(a.buf, rate, burst, peak, seed)
	return Curve{segs: a.buf[n:]}
}

// Zero reports whether the curve is identically zero.
func (c Curve) Zero() bool {
	for _, s := range c.segs {
		if s.Y != 0 || s.Rate != 0 {
			return false
		}
	}
	return true
}

// Eval returns the curve's value at time t (t < 0 evaluates to 0, per
// the network-calculus convention that curves vanish on negatives).
func (c Curve) Eval(t float64) float64 {
	if t < 0 || len(c.segs) == 0 {
		return 0
	}
	// Find the last segment with X <= t.
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > t }) - 1
	if i < 0 {
		i = 0
	}
	s := c.segs[i]
	return s.Y + s.Rate*(t-s.X)
}

// LongTermRate returns the slope of the curve's final segment — the
// sustained rate bound.
func (c Curve) LongTermRate() float64 {
	if len(c.segs) == 0 {
		return 0
	}
	return c.segs[len(c.segs)-1].Rate
}

// BurstAt0 returns the curve's value at t = 0+ (its instantaneous
// burst).
func (c Curve) BurstAt0() float64 { return c.Eval(0) }

// Segments returns a copy of the curve's linear pieces.
func (c Curve) Segments() []Segment {
	out := make([]Segment, len(c.segs))
	copy(out, c.segs)
	return out
}

// Add returns the pointwise sum of two curves: the arrival curve of the
// union of two independent sources. Concavity is preserved.
func Add(a, b Curve) Curve {
	if len(a.segs) == 0 {
		return b
	}
	if len(b.segs) == 0 {
		return a
	}
	// Merge the breakpoints of both curves.
	xs := make([]float64, 0, len(a.segs)+len(b.segs))
	for _, s := range a.segs {
		xs = append(xs, s.X)
	}
	for _, s := range b.segs {
		xs = append(xs, s.X)
	}
	sort.Float64s(xs)
	xs = dedupFloats(xs)

	segs := make([]Segment, 0, len(xs))
	for _, x := range xs {
		segs = append(segs, Segment{
			X:    x,
			Y:    a.Eval(x) + b.Eval(x),
			Rate: a.rateAt(x) + b.rateAt(x),
		})
	}
	return Curve{segs: normalize(segs)}
}

// Sum adds an arbitrary number of curves.
func Sum(curves ...Curve) Curve {
	var acc Curve
	for _, c := range curves {
		acc = Add(acc, c)
	}
	return acc
}

// Min returns the pointwise minimum of two curves. The minimum of two
// concave curves is concave; Min is how rate caps compose with token
// buckets.
func Min(a, b Curve) Curve {
	if len(a.segs) == 0 || len(b.segs) == 0 {
		return Curve{}
	}
	xs := make([]float64, 0, len(a.segs)+len(b.segs)+4)
	for _, s := range a.segs {
		xs = append(xs, s.X)
	}
	for _, s := range b.segs {
		xs = append(xs, s.X)
	}
	// Crossing points between every pair of pieces matter too; for the
	// concave curves used here a single crossing exists, but solve
	// generally: for each adjacent breakpoint interval, if the curves
	// cross inside it, insert the crossing.
	sort.Float64s(xs)
	xs = dedupFloats(xs)
	var crossings []float64
	for i := 0; i < len(xs); i++ {
		x0 := xs[i]
		x1 := x0 + 1e9 // open-ended last interval
		if i+1 < len(xs) {
			x1 = xs[i+1]
		}
		da0 := a.Eval(x0) - b.Eval(x0)
		da1 := a.Eval(x1) - b.Eval(x1)
		if da0 == 0 || da1 == 0 {
			continue
		}
		if (da0 < 0) != (da1 < 0) {
			// Linear on the interval; solve exactly.
			ra := a.rateAt(x0)
			rb := b.rateAt(x0)
			if ra != rb {
				xc := x0 + da0/(rb-ra)
				if xc > x0 && xc < x1 {
					crossings = append(crossings, xc)
				}
			}
		}
	}
	xs = append(xs, crossings...)
	sort.Float64s(xs)
	xs = dedupFloats(xs)

	segs := make([]Segment, 0, len(xs))
	for _, x := range xs {
		av, bv := a.Eval(x), b.Eval(x)
		ar, br := a.rateAt(x), b.rateAt(x)
		// At (near-)ties — which inserted crossing points are by
		// construction — the minimum continues along the lower-rate
		// branch; comparing raw floats there picks a branch at random.
		eps := 1e-9 * (1 + math.Abs(av) + math.Abs(bv))
		switch {
		case math.Abs(av-bv) <= eps:
			if ar <= br {
				segs = append(segs, Segment{X: x, Y: av, Rate: ar})
			} else {
				segs = append(segs, Segment{X: x, Y: bv, Rate: br})
			}
		case av < bv:
			segs = append(segs, Segment{X: x, Y: av, Rate: ar})
		default:
			segs = append(segs, Segment{X: x, Y: bv, Rate: br})
		}
	}
	return Curve{segs: normalize(segs)}
}

// Scale returns the curve k·A(t). k must be nonnegative.
func Scale(a Curve, k float64) Curve {
	if k < 0 {
		panic("netcal: negative scale")
	}
	segs := make([]Segment, len(a.segs))
	for i, s := range a.segs {
		segs[i] = Segment{X: s.X, Y: s.Y * k, Rate: s.Rate * k}
	}
	return Curve{segs: normalize(segs)}
}

// rateAt returns the slope in effect at time t (right-derivative).
func (c Curve) rateAt(t float64) float64 {
	if len(c.segs) == 0 {
		return 0
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > t }) - 1
	if i < 0 {
		i = 0
	}
	return c.segs[i].Rate
}

// normalize sorts segments, drops duplicates and merges colinear
// neighbours.
func normalize(segs []Segment) []Segment {
	if len(segs) == 0 {
		return segs
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].X < segs[j].X })
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if s.X == last.X {
			continue
		}
		// Merge if s continues last's line.
		if s.Rate == last.Rate && math.Abs(last.Y+last.Rate*(s.X-last.X)-s.Y) < 1e-6 {
			continue
		}
		out = append(out, s)
	}
	return out
}

func dedupFloats(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// String renders the curve's segments for debugging.
func (c Curve) String() string {
	if len(c.segs) == 0 {
		return "Curve{0}"
	}
	var b strings.Builder
	b.WriteString("Curve{")
	for i, s := range c.segs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "t>=%.6g: %.6g+%.6g·t", s.X, s.Y-s.Rate*s.X, s.Rate)
	}
	b.WriteString("}")
	return b.String()
}
