package netcal

import (
	"math"
	"math/rand"
	"testing"
)

// capScalars is a rate-capped curve min(peak·t + seed, rate·t + burst)
// in the scalar form the placement manager sums per port.
type capScalars struct{ rate, burst, peak, seed float64 }

func (c capScalars) plus(d capScalars) capScalars {
	return capScalars{c.rate + d.rate, c.burst + d.burst, c.peak + d.peak, c.seed + d.seed}
}

// drawCapScalars draws one contribution the way admission builds them:
// seed <= burst, and a peak that sits below, exactly on, or above the
// rate — "exactly on" is the paper's class B (Bmax = B), the fold the
// old token-bucket fallback got wrong.
func drawCapScalars(rng *rand.Rand) capScalars {
	var c capScalars
	if rng.Float64() < 0.1 {
		return c // an empty contribution
	}
	c.rate = float64(rng.Intn(8)) * 1.25e7 * float64(1+rng.Intn(10))
	switch x := rng.Float64(); {
	case x < 0.35:
		c.peak = c.rate
	case x < 0.5:
		c.peak = c.rate * rng.Float64()
	default:
		c.peak = c.rate + rng.Float64()*1.25e9
	}
	c.burst = rng.Float64() * 1e5
	switch x := rng.Float64(); {
	case x < 0.15:
		c.seed = c.burst
	case x < 0.25:
		c.seed = 0
	default:
		c.seed = math.Min(c.burst, 1500*float64(1+rng.Intn(8)))
	}
	return c
}

// capBounds evaluates the queue and backlog bounds of c every way the
// package offers: the closed forms, the generic bounds over both curve
// constructors, and the generic bounds over netcal's own Min of the two
// lines.
type capBounds struct {
	qClosed, qCurve, qArena, qMin float64
	bClosed, bCurve, bArena, bMin float64
}

func (b capBounds) all() [8]float64 {
	return [8]float64{b.qClosed, b.qCurve, b.qArena, b.qMin, b.bClosed, b.bCurve, b.bArena, b.bMin}
}

func boundsOf(c capScalars, R float64, ar *Arena) capBounds {
	svc := NewRateLatency(R, 0)
	curve := NewRateCapped(c.rate, c.burst, c.peak, c.seed)
	ar.Reset()
	arena := ar.RateCapped(c.rate, c.burst, c.peak, c.seed)
	lines := Min(NewTokenBucket(c.peak, c.seed), NewTokenBucket(c.rate, c.burst))
	return capBounds{
		qClosed: QueueBoundTwoPiece(c.rate, c.burst, c.peak, c.seed, R),
		qCurve:  QueueBound(curve, svc),
		qArena:  QueueBound(arena, svc),
		qMin:    QueueBound(lines, svc),
		bClosed: BacklogTwoPiece(c.rate, c.burst, c.peak, c.seed, R),
		bCurve:  Backlog(curve, svc),
		bArena:  Backlog(arena, svc),
		bMin:    Backlog(lines, svc),
	}
}

// Property: the rate-capped curve has one definition. For any port
// aggregate, (1) the closed forms, both constructors and Min of the two
// lines give the same queue and backlog bound — outside rate > svcRate,
// where the closed forms answer +Inf before looking at the lines — and
// (2) taking a contribution away never raises any of them, which is
// what lets an admitted set stay valid when a neighbour leaves.
func TestRateCappedMonotoneUnderRemovalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ar Arena
	notAbove := func(after, before float64) bool {
		return after <= before+1e-12*math.Max(1, math.Abs(before)) || math.IsInf(before, 1)
	}
	for i := 0; i < 20000; i++ {
		kept := drawCapScalars(rng)
		for j := rng.Intn(3); j > 0; j-- {
			kept = kept.plus(drawCapScalars(rng))
		}
		total := kept.plus(drawCapScalars(rng))
		R := 1.25e9
		if rng.Float64() < 0.3 {
			R = 1.25e8 * float64(1+rng.Intn(40))
		}
		after, before := boundsOf(kept, R, &ar), boundsOf(total, R, &ar)

		for _, c := range []struct {
			in capScalars
			b  capBounds
		}{{kept, after}, {total, before}} {
			b := c.b
			if !boundsAgree(b.qArena, b.qCurve) || !boundsAgree(b.qMin, b.qCurve) ||
				!boundsAgree(b.bArena, b.bCurve) || !boundsAgree(b.bMin, b.bCurve) {
				t.Fatalf("#%d %+v R=%v: materialized bounds disagree: %+v", i, c.in, R, b)
			}
			if c.in.rate > R {
				if !math.IsInf(b.qClosed, 1) || !math.IsInf(b.bClosed, 1) {
					t.Fatalf("#%d %+v R=%v: overbooked rate must bound to +Inf: %+v", i, c.in, R, b)
				}
				continue
			}
			if !boundsAgree(b.qClosed, b.qCurve) || !boundsAgree(b.bClosed, b.bCurve) {
				t.Fatalf("#%d %+v R=%v: closed forms disagree with the curves: %+v", i, c.in, R, b)
			}
		}

		was := before.all()
		for j, b := range after.all() {
			if !notAbove(b, was[j]) {
				t.Fatalf("#%d R=%v: a bound rose on removal, %v -> %v\nbefore %+v: %+v\nafter  %+v: %+v",
					i, R, was[j], b, total, before, kept, after)
			}
		}
	}
}

// Stepping the summed peak across the summed rate by one byte per
// second must not move the bound: min(peak·t + seed, rate·t + burst) is
// continuous there, and the port that showed the jump (ΣPeak = ΣRate =
// 0.75 GB/s, 90 KB of burst over a 4.5 KB seed, 10 GbE) is the first
// case.
func TestRateCappedDegenerateContinuityAcrossPeakEqualsRate(t *testing.T) {
	const R = 1.25e9
	var ar Arena
	if got, want := QueueBoundTwoPiece(0.75e9, 90e3, 0.75e9, 4.5e3, R), 4.5e3/R; !boundsAgree(got, want) {
		t.Fatalf("peak == rate: bound %v, want the peak line's %v", got, want)
	}
	rng := rand.New(rand.NewSource(19))
	cases := []capScalars{{0.75e9, 90e3, 0.75e9, 4.5e3}}
	for i := 0; i < 2000; i++ {
		// At rate == svcRate the deviation itself is discontinuous in the
		// peak (the lines part for ever); that is not the fold under test.
		if c := drawCapScalars(rng); c.rate >= 1.25e7 && c.rate <= 0.9*R {
			cases = append(cases, c)
		}
	}
	for _, c := range cases {
		c.peak = c.rate
		at := boundsOf(c, R, &ar).all()
		for _, step := range []float64{-1, 1} {
			c.peak = c.rate + step
			for j, b := range boundsOf(c, R, &ar).all() {
				if math.Abs(b-at[j]) > 1e-6*math.Max(math.Abs(at[j]), 1e-9) {
					t.Fatalf("%+v: bound jumps from %v at peak == rate to %v at peak = rate%+v", c, at[j], b, step)
				}
			}
		}
	}
}
