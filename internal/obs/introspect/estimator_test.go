package introspect

import (
	"math"
	"testing"
)

const (
	mtu  = 1518
	rate = 1.25e8 // 1 Gbps in bytes/sec
	s100 = 100e3
)

// A stream that honours {B, S} — bursts of S emitted back-to-back,
// then idle long enough to refill at B — must fit inside the admitted
// envelope: fitted burst ≤ S (+tolerance) and fitted rate ≤ B.
func TestEstimatorConformingStreamFits(t *testing.T) {
	e := &VMEstimator{VMID: 1, TenantID: 1, Admitted: Envelope{RateBps: rate, BurstBytes: s100}, epochNs: 1e6, tolBytes: mtu}
	peakGap := int64(1214)             // ≈ MTU serialization at 10 Gbps
	refill := int64(s100 / rate * 1e9) // refill S at B
	now := int64(0)
	for round := 0; round < 20; round++ {
		sent := 0.0
		for sent < s100 {
			e.Observe(now, mtu)
			sent += mtu
			now += peakGap
		}
		now += refill
	}
	env := e.Snapshot()
	if env.Violated {
		t.Fatalf("conforming stream flagged: fitted burst %.0f vs admitted %.0f", env.FittedBurstBytes, env.AdmittedBurstBytes)
	}
	if env.FittedBurstBytes > s100+mtu {
		t.Fatalf("fitted burst %.0f exceeds admitted %0.f + MTU", env.FittedBurstBytes, s100)
	}
	if env.FittedRateBps > rate*1.01 {
		t.Fatalf("fitted rate %.3g exceeds admitted %.3g", env.FittedRateBps, rate)
	}
	if env.BurstSlackBytes < 0 && env.FittedBurstBytes <= s100 {
		t.Fatalf("slack sign inconsistent: %+v", env)
	}
}

// A stream that overdrives the admitted envelope — either a single
// oversized burst or a sustained rate above B — must flip Violated.
func TestEstimatorViolationFlips(t *testing.T) {
	burst := &VMEstimator{Admitted: Envelope{RateBps: rate, BurstBytes: 10e3}, epochNs: 1e6, tolBytes: mtu}
	for i := 0; i < 20; i++ { // 30 KB in one instant against S = 10 KB
		burst.Observe(0, mtu)
	}
	if env := burst.Snapshot(); !env.Violated {
		t.Fatalf("oversized burst not flagged: %+v", env)
	}

	sustained := &VMEstimator{Admitted: Envelope{RateBps: rate, BurstBytes: s100}, epochNs: 1e6, tolBytes: mtu}
	gap := int64(float64(mtu) / (2 * rate) * 1e9) // emit at 2B forever
	now := int64(0)
	for sent := 0.0; sent < 20*s100; sent += mtu {
		sustained.Observe(now, mtu)
		now += gap
	}
	env := sustained.Snapshot()
	if !env.Violated {
		t.Fatalf("sustained 2B stream not flagged: %+v", env)
	}
	if env.FittedRateBps < 1.8*rate || env.FittedRateBps > 2.2*rate {
		t.Fatalf("fitted long-run rate %.3g, want ≈ 2B = %.3g", env.FittedRateBps, 2*rate)
	}
}

// The virtual-queue fit is exact: for a hand-computable two-burst
// pattern the fitted burst equals the analytic minimal S*.
func TestEstimatorFitIsMinimal(t *testing.T) {
	e := &VMEstimator{Admitted: Envelope{RateBps: 1000, BurstBytes: 1e9}, epochNs: 1e9, tolBytes: 0}
	e.Observe(0, 5000)   // level 5000
	e.Observe(2e9, 4000) // drained 2000 over 2 s -> 3000, +4000 = 7000
	env := e.Snapshot()
	if math.Abs(env.FittedBurstBytes-7000) > 1e-9 {
		t.Fatalf("fitted burst %.6f, want 7000", env.FittedBurstBytes)
	}
	if math.Abs(env.TotalBytes-9000) > 1e-9 || env.Emissions != 2 {
		t.Fatalf("totals wrong: %+v", env)
	}
}

// Epoch rolling: closed epochs report their own rate and max level;
// empty epochs are skipped in O(1) and leave the last non-empty fit in
// place.
func TestEstimatorEpochRoll(t *testing.T) {
	e := &VMEstimator{Admitted: Envelope{RateBps: 1e6, BurstBytes: 1e6}, epochNs: 1e6, tolBytes: 0}
	e.Observe(0, 1000)
	e.Observe(500_000, 1000) // same epoch
	// Arrival 5 epochs later: the first epoch closes with 2000 bytes;
	// the 4 skipped epochs were empty.
	e.Observe(5_500_000, 500)
	env := e.Snapshot()
	if env.Epochs != 5 {
		t.Fatalf("epochs %d, want 5", env.Epochs)
	}
	if want := 2000.0 * 1e9 / 1e6; math.Abs(env.EpochRateBps-want) != 0 {
		t.Fatalf("epoch rate %.0f, want %.0f (first epoch's 2000 bytes)", env.EpochRateBps, want)
	}
	// Another idle stretch: the fit from the last non-empty epoch must
	// survive the empty ones.
	e.Observe(9_500_000, 500)
	if env := e.Snapshot(); env.EpochRateBps != 500.0*1e9/1e6 {
		t.Fatalf("epoch rate %.0f after roll, want 500-byte epoch", env.EpochRateBps)
	}
}

// The estimator's hot path must not allocate.
func TestEstimatorObserveAllocFree(t *testing.T) {
	e := &VMEstimator{Admitted: Envelope{RateBps: rate, BurstBytes: s100}, epochNs: 1e6, tolBytes: mtu}
	now := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		e.Observe(now, mtu)
		now += 12_000
	}); n != 0 {
		t.Fatalf("Observe allocates %.1f/op", n)
	}
}
