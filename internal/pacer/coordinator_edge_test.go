package pacer

import (
	"math"
	"testing"
)

// Epoch at t=0, before any traffic was sent, splits the hose max-min
// over the flows that have only queued bytes.
func TestCoordinatorEpochAtTimeZero(t *testing.T) {
	const b = 1e8
	vms := coordVMs(3, b)
	c := NewCoordinator(b, vms)
	vms[1].Enqueue(0, 0, 1500, nil)
	vms[2].Enqueue(0, 0, 1500, nil)
	if got := c.Epoch(0); got != 2 {
		t.Fatalf("active flows = %d, want 2", got)
	}
	for _, src := range []int{1, 2} {
		r := vms[src].DestRate(0)
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Errorf("VM %d rate = %v after zero-length epoch", src, r)
		}
		if math.Abs(r-b/2) > 1 {
			t.Errorf("VM %d rate = %v, want max-min share %v", src, r, b/2)
		}
	}
}

// A clock stepping backwards (negative skew) must neither panic nor
// install negative or non-finite rates, and the coordinator must keep
// functioning on subsequent forward epochs.
func TestCoordinatorNegativeClockSkew(t *testing.T) {
	const b = 1e8
	vms := coordVMs(3, b)
	c := NewCoordinator(b, vms)

	vms[1].Enqueue(0, 0, 1500, nil)
	c.Epoch(1_000_000_000)

	// Clock steps back half a second; the flow is still backlogged.
	vms[1].Enqueue(500_000_000, 0, 1500, nil)
	vms[2].Enqueue(500_000_000, 0, 1500, nil)
	if got := c.Epoch(500_000_000); got != 2 {
		t.Fatalf("active flows = %d, want 2", got)
	}
	for _, src := range []int{1, 2} {
		r := vms[src].DestRate(0)
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Fatalf("VM %d rate = %v after negative-skew epoch", src, r)
		}
	}

	// The next forward epoch works as before.
	if got := c.Epoch(2_500_000_000); got != 2 {
		t.Fatalf("active flows after recovery = %d, want 2", got)
	}
	for _, src := range []int{1, 2} {
		r := vms[src].DestRate(0)
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Errorf("VM %d rate = %v after recovery epoch", src, r)
		}
	}
}

// Repeated epochs at the same timestamp (a stuck clock) keep a lone
// backlogged flow at its full hose share.
func TestCoordinatorStuckClock(t *testing.T) {
	const b = 1e8
	vms := coordVMs(2, b)
	c := NewCoordinator(b, vms)
	vms[1].Enqueue(0, 0, 1500, nil)
	for i := 0; i < 3; i++ {
		if got := c.Epoch(7_000_000); got != 1 {
			t.Fatalf("iteration %d: active = %d, want 1", i, got)
		}
		r := vms[1].DestRate(0)
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Fatalf("iteration %d: rate = %v", i, r)
		}
		if i > 0 && math.Abs(r-b) > 1 {
			t.Errorf("iteration %d: rate = %v, want uncapped hose share %v", i, r, float64(b))
		}
	}
}
