package netcal

import (
	"math"
	"math/rand"
	"testing"
)

// boundsAgree compares a closed-form bound against the generic
// breakpoint-enumeration QueueBound, treating matching infinities as
// agreement.
func boundsAgree(got, want float64) bool {
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		return math.IsInf(want, 1) && math.IsInf(got, 1)
	}
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

func TestQueueBoundTBMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	svc := func() float64 { return math.Pow(10, 6+rng.Float64()*4) }
	for i := 0; i < 5000; i++ {
		rate := math.Pow(10, 5+rng.Float64()*5)
		burst := rng.Float64() * 1e6
		R := svc()
		want := QueueBound(NewTokenBucket(rate, burst), NewRateLatency(R, 0))
		got := QueueBoundTB(rate, burst, R)
		if !boundsAgree(got, want) {
			t.Fatalf("tb(rate=%v burst=%v R=%v): closed %v generic %v", rate, burst, R, got, want)
		}
	}
	// Exact boundary: long-term rate equal to service rate is finite.
	if got := QueueBoundTB(1e9, 5e5, 1e9); math.IsInf(got, 1) {
		t.Fatalf("rate == svcRate must be finite, got %v", got)
	}
	if got := QueueBoundTB(1e9+1, 5e5, 1e9); !math.IsInf(got, 1) {
		t.Fatalf("rate > svcRate must be +Inf, got %v", got)
	}
	if got := QueueBoundTB(0, 0, 1e9); got != 0 {
		t.Fatalf("zero curve must bound to 0, got %v", got)
	}
}

func TestQueueBoundTwoPieceMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		rate := math.Pow(10, 5+rng.Float64()*5)
		burst := rng.Float64() * 1e6
		peak := rate * (0.5 + rng.Float64()*20) // sometimes <= rate (degenerate)
		seed := rng.Float64() * burst * 1.5     // sometimes >= burst (degenerate)
		R := math.Pow(10, 6+rng.Float64()*4)
		want := QueueBound(NewRateCapped(rate, burst, peak, seed), NewRateLatency(R, 0))
		if rate > R {
			want = math.Inf(1) // the closed form's overbooking answer, whichever line binds
		}
		got := QueueBoundTwoPiece(rate, burst, peak, seed, R)
		if !boundsAgree(got, want) {
			t.Fatalf("twopiece(rate=%v burst=%v peak=%v seed=%v R=%v): closed %v generic %v",
				rate, burst, peak, seed, R, got, want)
		}
	}
}

// Where one line is the whole minimum the bound is that line's, not
// the token bucket's: the closed form, the materialized curve and
// netcal's own Min of the two lines agree.
func TestQueueBoundTwoPieceDegenerateIsMinOfLines(t *testing.T) {
	const R = 1e9
	svc := NewRateLatency(R, 0)
	for _, c := range []struct{ rate, burst, peak, seed, want float64 }{
		{1e8, 3e4, 5e7, 1e3, 1e3 / R}, // peak < rate: the seed drains, then nothing queues
		{1e8, 3e4, 1e8, 1e3, 1e3 / R}, // peak == rate
		{1e8, 3e4, 1e9, 3e4, 3e4 / R}, // seed == burst: the token bucket
		{1e8, 3e4, 1e9, 5e4, 3e4 / R}, // seed > burst
		{1e8, 3e4, 5e7, 5e4, 3e4 / R}, // seed > burst and peak < rate
		{1e8, 0, 1e9, 0, 0},           // zero burst
	} {
		got := QueueBoundTwoPiece(c.rate, c.burst, c.peak, c.seed, R)
		viaCurve := QueueBound(NewRateCapped(c.rate, c.burst, c.peak, c.seed), svc)
		viaMin := QueueBound(Min(NewTokenBucket(c.peak, c.seed), NewTokenBucket(c.rate, c.burst)), svc)
		if !boundsAgree(got, c.want) || !boundsAgree(viaCurve, c.want) || !boundsAgree(viaMin, c.want) {
			t.Errorf("%+v: closed %v, curve %v, Min %v, want %v", c, got, viaCurve, viaMin, c.want)
		}
	}
}

func TestQueueBoundGenericFastPathSingleSegmentService(t *testing.T) {
	// The generic QueueBound takes an allocation-free path for pure
	// rate services; it must agree with the breakpoint path taken by
	// a latency-shifted service curve with latency 0 approached via a
	// two-segment encoding.
	a := NewRateCapped(2e8, 6e4, 2e9, 3e3)
	s1 := NewRateLatency(1e9, 0)
	got := QueueBound(a, s1)
	want := 0.0
	// Hand-computed horizontal deviation for this arrival at R=1e9:
	// knee at tx=(6e4-3e3)/(2e9-2e8)=3.1667e-5, y=3e3+2e9*tx=6.633e4;
	// bound = max(seed/R, y/R - tx).
	tx := (6e4 - 3e3) / (2e9 - 2e8)
	y := 3e3 + 2e9*tx
	want = math.Max(3e3/1e9, y/1e9-tx)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestArenaCurvesMatchConstructors(t *testing.T) {
	var ar Arena
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		rate := rng.Float64() * 1e9
		burst := rng.Float64() * 1e5
		peak := rng.Float64() * 5e9
		seed := rng.Float64() * 1e5

		tb := ar.TokenBucket(rate, burst)
		tbWant := NewTokenBucket(rate, burst)
		rc := ar.RateCapped(rate, burst, peak, seed)
		rcWant := NewRateCapped(rate, burst, peak, seed)

		for _, tt := range []float64{0, 1e-6, 1e-4, 1e-2, 1} {
			if got, want := tb.Eval(tt), tbWant.Eval(tt); got != want {
				t.Fatalf("arena token bucket differs at t=%v: %v vs %v", tt, got, want)
			}
			if got, want := rc.Eval(tt), rcWant.Eval(tt); got != want {
				t.Fatalf("arena rate-capped differs at t=%v: %v vs %v", tt, got, want)
			}
		}
	}
}

func TestArenaGrowthPreservesEarlierCurves(t *testing.T) {
	var ar Arena
	first := ar.TokenBucket(1e8, 4e4)
	// Force repeated growth; earlier curves must keep their values even
	// though the arena reallocates its backing buffer.
	for i := 0; i < 10000; i++ {
		ar.RateCapped(1e8, 4e4, 1e9, 1.5e3)
	}
	if got, want := first.Eval(1e-3), NewTokenBucket(1e8, 4e4).Eval(1e-3); got != want {
		t.Fatalf("curve corrupted by arena growth: %v vs %v", got, want)
	}
}

func TestArenaReset(t *testing.T) {
	var ar Arena
	for i := 0; i < 64; i++ {
		ar.RateCapped(1e8, 4e4, 1e9, 1.5e3)
	}
	ar.Reset()
	c := ar.TokenBucket(2e8, 8e4)
	if got, want := c.Eval(1e-3), NewTokenBucket(2e8, 8e4).Eval(1e-3); got != want {
		t.Fatalf("post-reset curve wrong: %v vs %v", got, want)
	}
	// Reset must reuse the buffer, not allocate fresh segments.
	allocs := testing.AllocsPerRun(100, func() {
		ar.Reset()
		ar.TokenBucket(1e8, 4e4)
		ar.RateCapped(1e8, 4e4, 1e9, 1.5e3)
	})
	if allocs != 0 {
		t.Fatalf("arena reuse allocated %v times per run", allocs)
	}
}

func TestArenaRejectsNegativeParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative rate")
		}
	}()
	var ar Arena
	ar.TokenBucket(-1, 0)
}
