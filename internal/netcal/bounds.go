package netcal

import "math"

// QueueBound returns the maximum horizontal deviation between arrival
// curve a and service curve s — the worst-case queuing delay (seconds)
// a packet experiences at a port serving a-shaped traffic (paper
// Fig. 6b: the largest q such that s(t) = a(t − q)).
//
// If the arrival curve's long-term rate exceeds the service curve's,
// the queue grows without bound and +Inf is returned.
func QueueBound(a, s Curve) float64 {
	if a.Zero() {
		return 0
	}
	if a.LongTermRate() > s.LongTermRate() {
		return math.Inf(1)
	}
	// Fast path: a zero-latency rate service (the only service curve the
	// placement manager builds) has a single breakpoint at the origin,
	// so the horizontal deviation is attained at a breakpoint of the
	// arrival curve and no candidate enumeration is needed.
	if len(s.segs) == 1 && s.segs[0].X == 0 && s.segs[0].Y == 0 {
		return boundAgainstRate(a, s.segs[0].Rate)
	}
	// The maximum horizontal deviation of piecewise-linear curves is
	// attained at a breakpoint of one of them: for each breakpoint
	// (t, y) of a, the delay is the time until s reaches y; for each
	// breakpoint of s at height y, the delay is measured back to where
	// a reached y. Checking the arrival curve's breakpoints plus the
	// service curve's breakpoint heights covers all candidates.
	best := 0.0
	consider := func(t, y float64) {
		ts := timeToReach(s, y)
		if ts == math.Inf(1) {
			best = math.Inf(1)
			return
		}
		if d := ts - t; d > best {
			best = d
		}
	}
	for _, seg := range a.segs {
		consider(seg.X, a.Eval(seg.X))
	}
	for _, seg := range s.segs {
		y := s.Eval(seg.X)
		ta := timeWhenArrived(a, y)
		consider(ta, y)
	}
	if math.IsInf(best, 1) {
		return best
	}
	if best < 0 {
		best = 0
	}
	return best
}

// boundAgainstRate returns the maximum horizontal deviation between
// arrival curve a and the pure-rate service β(t) = R·t, visiting only
// a's breakpoints and allocating nothing. The arithmetic matches the
// general QueueBound path (timeToReach over a single {0,0,R} segment)
// float for float.
func boundAgainstRate(a Curve, R float64) float64 {
	best := 0.0
	for _, seg := range a.segs {
		ts := 0.0
		if seg.Y > 0 {
			if R <= 0 {
				return math.Inf(1)
			}
			ts = seg.Y / R
		}
		if d := ts - seg.X; d > best {
			best = d
		}
	}
	return best
}

// QueueBoundTB returns QueueBound for the token-bucket arrival curve
// A(t) = rate·t + burst against the zero-latency rate service
// β(t) = svcRate·t, in closed form with no allocation. Results are
// float-for-float identical to QueueBound(NewTokenBucket(rate, burst),
// NewRateLatency(svcRate, 0)), except that a (numerically) negative
// burst — float residue an aggregate may carry after removals — clamps
// to a zero bound instead of panicking in the curve constructor.
func QueueBoundTB(rate, burst, svcRate float64) float64 {
	if rate == 0 && burst == 0 {
		return 0
	}
	if rate > svcRate {
		return math.Inf(1)
	}
	if burst <= 0 {
		return 0
	}
	if svcRate <= 0 {
		return math.Inf(1)
	}
	return burst / svcRate
}

// QueueBoundTwoPiece returns QueueBound for the rate-capped arrival
// curve A′(t) = min(peak·t + seed, rate·t + burst) against the
// zero-latency rate service β(t) = svcRate·t, with no allocation. It
// reads the pieces NewRateCapped would store (minOfLines), so results
// are float-for-float identical to materializing the curves and calling
// QueueBound — except that rate > svcRate answers +Inf even where the
// peak line alone is the minimum (peak <= rate): the bucket rate is the
// bandwidth the port has promised, and a port promised more than it
// serves is overbooked whatever the peak cap hides. This is the
// placement manager's admission-check hot path: it runs millions of
// times per rejected tenant request at datacenter scale.
func QueueBoundTwoPiece(rate, burst, peak, seed, svcRate float64) float64 {
	if rate > svcRate {
		return math.Inf(1)
	}
	y0, _, tx, yx, _ := minOfLines(rate, burst, peak, seed)
	best := 0.0
	if y0 > 0 {
		best = y0 / svcRate // +Inf at svcRate == 0: the queue never drains
	}
	if yx > 0 {
		if d := yx/svcRate - tx; d > best {
			best = d
		}
	}
	return best
}

// BacklogTB returns Backlog for the token-bucket arrival curve
// A(t) = rate·t + burst against the zero-latency rate service
// β(t) = svcRate·t, in closed form with no allocation. Results are
// float-for-float identical to Backlog(NewTokenBucket(rate, burst),
// NewRateLatency(svcRate, 0)), except that a (numerically) negative
// burst clamps to zero instead of panicking in the constructor. The
// introspection plane derives every port's worst-case occupancy from
// the placement manager's aggregate scalars through this path.
func BacklogTB(rate, burst, svcRate float64) float64 {
	if rate == 0 && burst == 0 {
		return 0
	}
	if rate > svcRate {
		return math.Inf(1)
	}
	if burst < 0 {
		return 0
	}
	return burst
}

// BacklogTwoPiece returns Backlog for the rate-capped arrival curve
// A′(t) = min(peak·t + seed, rate·t + burst) against the zero-latency
// rate service β(t) = svcRate·t, with no allocation: the vertical
// deviation is attained at a breakpoint of A′ (minOfLines), the
// instantaneous burst at t = 0 or the knee. Float-for-float identical to
// Backlog over the materialized curves, with QueueBoundTwoPiece's +Inf
// for rate > svcRate.
func BacklogTwoPiece(rate, burst, peak, seed, svcRate float64) float64 {
	if rate > svcRate {
		return math.Inf(1)
	}
	y0, _, tx, yx, _ := minOfLines(rate, burst, peak, seed)
	best := 0.0
	if y0 > best {
		best = y0
	}
	if d := yx - svcRate*tx; d > best {
		best = d
	}
	return best
}

// BusyPeriodTB returns BusyPeriod for the token-bucket arrival curve
// against the zero-latency rate service β(t) = svcRate·t, in closed
// form: the curves meet where svcRate·t = rate·t + burst. Results are
// float-for-float identical to the generic breakpoint scan, including
// its edge semantics (a zero-burst, positive-rate curve reports +Inf —
// the scan finds no strictly positive meeting point).
func BusyPeriodTB(rate, burst, svcRate float64) float64 {
	if rate == 0 && burst == 0 {
		return 0
	}
	if rate > svcRate {
		return math.Inf(1)
	}
	if svcRate > rate && burst > 0 {
		return burst / (svcRate - rate)
	}
	return math.Inf(1)
}

// BusyPeriodTwoPiece returns BusyPeriod for the rate-capped arrival
// curve against the zero-latency rate service β(t) = svcRate·t, with no
// allocation, float-for-float identical to the generic scan over the
// materialized curves (and +Inf for rate > svcRate, like
// QueueBoundTwoPiece). Piece by piece (minOfLines), the service line
// has either caught up by the piece's start, or crosses it before the
// next piece begins, or not at all.
func BusyPeriodTwoPiece(rate, burst, peak, seed, svcRate float64) float64 {
	if rate > svcRate {
		return math.Inf(1)
	}
	y0, r0, tx, yx, r1 := minOfLines(rate, burst, peak, seed)
	if tx == 0 {
		return BusyPeriodTB(r0, y0, svcRate)
	}
	if svcRate > r0 && y0 > 0 {
		if t := y0 / (svcRate - r0); t < tx {
			return t
		}
	}
	d := yx - svcRate*tx
	if d <= 0 {
		return tx
	}
	if svcRate > r1 {
		return tx + d/(svcRate-r1)
	}
	return math.Inf(1)
}

// Backlog returns the maximum vertical deviation between a and s — the
// worst-case queue occupancy in bytes. +Inf if a's long-term rate
// exceeds s's.
func Backlog(a, s Curve) float64 {
	if a.Zero() {
		return 0
	}
	if a.LongTermRate() > s.LongTermRate() {
		return math.Inf(1)
	}
	best := 0.0
	consider := func(t float64) {
		if d := a.Eval(t) - s.Eval(t); d > best {
			best = d
		}
	}
	for _, seg := range a.segs {
		consider(seg.X)
	}
	for _, seg := range s.segs {
		consider(seg.X)
	}
	return best
}

// BusyPeriod returns the paper's p value: the maximum interval over
// which the port's queue must empty at least once — the first time
// t > 0 at which s(t) >= a(t). Kurose's analysis bounds the egress
// burst added by a switch by the traffic arriving within p. +Inf if the
// curves never meet.
func BusyPeriod(a, s Curve) float64 {
	if a.Zero() {
		return 0
	}
	if a.LongTermRate() > s.LongTermRate() {
		return math.Inf(1)
	}
	// Scan the merged breakpoints; within each interval both curves are
	// linear, so the meeting point solves exactly.
	xs := make([]float64, 0, len(a.segs)+len(s.segs))
	for _, seg := range a.segs {
		xs = append(xs, seg.X)
	}
	for _, seg := range s.segs {
		xs = append(xs, seg.X)
	}
	xs = dedupFloats(sortedFloats(xs))
	for i := 0; i < len(xs); i++ {
		x0 := xs[i]
		x1 := math.Inf(1)
		if i+1 < len(xs) {
			x1 = xs[i+1]
		}
		d0 := a.Eval(x0) - s.Eval(x0)
		if d0 <= 0 && x0 > 0 {
			return x0
		}
		ra := a.rateAt(x0)
		rs := s.rateAt(x0)
		if rs > ra && d0 > 0 {
			xc := x0 + d0/(rs-ra)
			if xc < x1 || math.IsInf(x1, 1) {
				return xc
			}
		}
	}
	return math.Inf(1)
}

// timeToReach returns the earliest t with c(t) >= y (Inf if never).
func timeToReach(c Curve, y float64) float64 {
	if y <= 0 {
		return 0
	}
	for i, seg := range c.segs {
		endX := math.Inf(1)
		if i+1 < len(c.segs) {
			endX = c.segs[i+1].X
		}
		endY := math.Inf(1)
		if !math.IsInf(endX, 1) {
			endY = seg.Y + seg.Rate*(endX-seg.X)
		} else if seg.Rate > 0 {
			endY = math.Inf(1)
		} else {
			endY = seg.Y
		}
		if y <= endY {
			if seg.Rate == 0 {
				if y <= seg.Y {
					return seg.X
				}
				continue
			}
			t := seg.X + (y-seg.Y)/seg.Rate
			if t < seg.X {
				t = seg.X
			}
			return t
		}
	}
	return math.Inf(1)
}

// timeWhenArrived returns the latest t with c(t) <= y, i.e. the moment
// the arrival curve last sat at height y; used to measure horizontal
// deviation back from a service-curve breakpoint. For a curve that
// jumps above y at t=0 it returns 0.
func timeWhenArrived(c Curve, y float64) float64 {
	if len(c.segs) == 0 {
		return 0
	}
	if c.Eval(0) >= y {
		return 0
	}
	t := timeToReach(c, y)
	if math.IsInf(t, 1) {
		return 0
	}
	return t
}

func sortedFloats(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	// insertion sort: slices here are tiny (a handful of breakpoints).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
