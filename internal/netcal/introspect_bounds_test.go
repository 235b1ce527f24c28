package netcal

import (
	"math"
	"math/rand"
	"testing"
)

func TestBacklogTBMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		rate := math.Pow(10, 5+rng.Float64()*5)
		burst := rng.Float64() * 1e6
		R := math.Pow(10, 6+rng.Float64()*4)
		want := Backlog(NewTokenBucket(rate, burst), NewRateLatency(R, 0))
		got := BacklogTB(rate, burst, R)
		if !boundsAgree(got, want) {
			t.Fatalf("tb(rate=%v burst=%v R=%v): closed %v generic %v", rate, burst, R, got, want)
		}
	}
	if got := BacklogTB(0, 0, 1e9); got != 0 {
		t.Fatalf("zero curve must have 0 backlog, got %v", got)
	}
	if got := BacklogTB(1e9+1, 5e5, 1e9); !math.IsInf(got, 1) {
		t.Fatalf("rate > svcRate must be +Inf, got %v", got)
	}
	if got := BacklogTB(1e8, -4, 1e9); got != 0 {
		t.Fatalf("negative burst residue must clamp to 0, got %v", got)
	}
}

func TestBacklogTwoPieceMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 5000; i++ {
		rate := math.Pow(10, 5+rng.Float64()*5)
		burst := rng.Float64() * 1e6
		peak := rate * (0.5 + rng.Float64()*20) // sometimes <= rate (degenerate)
		seed := rng.Float64() * burst * 1.5     // sometimes >= burst (degenerate)
		R := math.Pow(10, 6+rng.Float64()*4)
		want := Backlog(NewRateCapped(rate, burst, peak, seed), NewRateLatency(R, 0))
		if rate > R {
			want = math.Inf(1) // the closed form's overbooking answer, whichever line binds
		}
		got := BacklogTwoPiece(rate, burst, peak, seed, R)
		if !boundsAgree(got, want) {
			t.Fatalf("twopiece(rate=%v burst=%v peak=%v seed=%v R=%v): closed %v generic %v",
				rate, burst, peak, seed, R, got, want)
		}
	}
}

func TestBusyPeriodTBMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		rate := math.Pow(10, 5+rng.Float64()*5)
		burst := rng.Float64() * 1e6
		R := math.Pow(10, 6+rng.Float64()*4)
		want := BusyPeriod(NewTokenBucket(rate, burst), NewRateLatency(R, 0))
		got := BusyPeriodTB(rate, burst, R)
		if !boundsAgree(got, want) {
			t.Fatalf("tb(rate=%v burst=%v R=%v): closed %v generic %v", rate, burst, R, got, want)
		}
	}
	// Edge semantics pinned to the generic scan.
	if got := BusyPeriodTB(0, 0, 1e9); got != 0 {
		t.Fatalf("zero curve busy period must be 0, got %v", got)
	}
	if got, want := BusyPeriodTB(1e8, 0, 1e9), BusyPeriod(NewTokenBucket(1e8, 0), NewRateLatency(1e9, 0)); !boundsAgree(got, want) {
		t.Fatalf("zero-burst edge: closed %v generic %v", got, want)
	}
	if got := BusyPeriodTB(1e9, 5e5, 1e9); !math.IsInf(got, 1) {
		t.Fatalf("rate == svcRate never meets, want +Inf got %v", got)
	}
}

func TestBusyPeriodTwoPieceMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 5000; i++ {
		rate := math.Pow(10, 5+rng.Float64()*5)
		burst := rng.Float64() * 1e6
		peak := rate * (0.5 + rng.Float64()*20)
		seed := rng.Float64() * burst * 1.5
		// Span service rates below rate, between rate and peak, and
		// above peak so every closed-form branch is exercised.
		R := math.Pow(10, 4+rng.Float64()*7)
		want := BusyPeriod(NewRateCapped(rate, burst, peak, seed), NewRateLatency(R, 0))
		if rate > R {
			want = math.Inf(1)
		}
		got := BusyPeriodTwoPiece(rate, burst, peak, seed, R)
		if !boundsAgree(got, want) {
			t.Fatalf("twopiece(rate=%v burst=%v peak=%v seed=%v R=%v): closed %v generic %v",
				rate, burst, peak, seed, R, got, want)
		}
	}
	// Service line grazing the knee exactly: svc·tx == yx returns tx.
	rate, burst, peak, seed := 1e8, 1e6, 1e9, 0.0
	// With seed == 0, tx = burst/(peak-rate), yx = peak·tx; pick svc
	// above peak so the knee is the first nonnegative crossing.
	if got, want := BusyPeriodTwoPiece(rate, burst, peak, seed, 2e9),
		BusyPeriod(NewRateCapped(rate, burst, peak, seed), NewRateLatency(2e9, 0)); !boundsAgree(got, want) {
		t.Fatalf("zero-seed knee: closed %v generic %v", got, want)
	}
}

func TestIntrospectBoundsAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		_ = BacklogTB(1e8, 5e5, 1e9)
		_ = BacklogTwoPiece(1e8, 5e5, 1e9, 1500, 1e9)
		_ = BusyPeriodTB(1e8, 5e5, 1e9)
		_ = BusyPeriodTwoPiece(1e8, 5e5, 1e9, 1500, 1e9)
	}); n != 0 {
		t.Fatalf("closed-form bounds allocated %v/op, want 0", n)
	}
}
