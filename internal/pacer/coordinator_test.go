package pacer

import (
	"math"
	"testing"
)

func coordVMs(n int, b float64) map[int]*VM {
	vms := make(map[int]*VM, n)
	for i := 0; i < n; i++ {
		vms[i] = NewVM(i, Guarantee{
			BandwidthBps: b, BurstBytes: 15e3, BurstRateBps: 8 * b, MTUBytes: 1500,
		}, 0)
	}
	return vms
}

func TestCoordinatorConvergesAllToOne(t *testing.T) {
	const b = 1e8
	vms := coordVMs(5, b)
	c := NewCoordinator(b, vms)
	// VMs 1..4 queue traffic to VM 0.
	for i := 1; i < 5; i++ {
		vms[i].Enqueue(0, 0, 1500, nil)
		vms[i].Enqueue(0, 0, 1500, nil)
	}
	if got := c.Epoch(0); got != 4 {
		t.Fatalf("active flows = %d, want 4", got)
	}
	// Receiver bottleneck: each sender gets B/4.
	for i := 1; i < 5; i++ {
		if r := vms[i].DestRate(0); math.Abs(r-b/4) > 1 {
			t.Errorf("VM %d rate = %v, want %v", i, r, b/4)
		}
	}
}

func TestCoordinatorRevertsIdleToFullHose(t *testing.T) {
	const b = 1e8
	vms := coordVMs(3, b)
	c := NewCoordinator(b, vms)
	vms[1].Enqueue(0, 0, 1500, nil)
	vms[2].Enqueue(0, 0, 1500, nil)
	c.Epoch(0) // both active: B/2 each
	if r := vms[1].DestRate(0); math.Abs(r-b/2) > 1 {
		t.Fatalf("active rate = %v, want %v", r, b/2)
	}
	// Drain the queues (commit + pop) and run an epoch with no new
	// demand: both pairs are idle now.
	for _, vm := range []*VM{vms[1], vms[2]} {
		vm.Schedule(1 << 62)
		for {
			if _, ok := vm.PopReady(1 << 62); !ok {
				break
			}
		}
	}
	c.Epoch(1_000_000) // sent delta > 0: still counted active
	if got := c.Epoch(2_000_000); got != 0 {
		t.Fatalf("active flows = %d, want 0", got)
	}
	// Idle pairs revert to the full hose entitlement.
	if r := vms[1].DestRate(0); math.Abs(r-b) > 1 {
		t.Errorf("idle rate = %v, want full B %v", r, b)
	}
}

func TestCoordinatorTracksShiftingDemand(t *testing.T) {
	const b = 1e8
	vms := coordVMs(4, b)
	c := NewCoordinator(b, vms)
	// Phase 1: 1->0 and 2->0.
	vms[1].Enqueue(0, 0, 1500, nil)
	vms[2].Enqueue(0, 0, 1500, nil)
	c.Epoch(0)
	if r := vms[1].DestRate(0); math.Abs(r-b/2) > 1 {
		t.Fatalf("phase1 rate = %v", r)
	}
	// Phase 2: 3->0 joins while 1,2 stay backlogged.
	vms[3].Enqueue(100, 0, 1500, nil)
	c.Epoch(1_000_000)
	for _, i := range []int{1, 2, 3} {
		if r := vms[i].DestRate(0); math.Abs(r-b/3) > 1 {
			t.Errorf("phase2 VM %d rate = %v, want %v", i, r, b/3)
		}
	}
}

func TestCoordinatorIgnoresExternalDestinations(t *testing.T) {
	const b = 1e8
	vms := coordVMs(2, b)
	c := NewCoordinator(b, vms)
	// VM 0 sends to VM 999, outside the tenant: not hose-coordinated.
	vms[0].Enqueue(0, 999, 1500, nil)
	if got := c.Epoch(0); got != 0 {
		t.Errorf("external flow counted active: %d", got)
	}
	if r := vms[0].DestRate(999); r != 0 {
		t.Errorf("external dest got a bucket: %v", r)
	}
}

func TestDemandAccounting(t *testing.T) {
	vm := NewVM(1, Guarantee{BandwidthBps: 1e8, BurstBytes: 3000, MTUBytes: 1500}, 0)
	vm.Enqueue(0, 7, 1500, nil)
	vm.Enqueue(0, 7, 1000, nil)
	if got := queuedTo(vm, 7); got != 2500 {
		t.Errorf("queued = %d, want 2500", got)
	}
	if got := sentTo(vm, 7); got != 0 {
		t.Errorf("sent = %d, want 0", got)
	}
	vm.Schedule(1 << 62)
	if got := queuedTo(vm, 7); got != 0 {
		t.Errorf("queued after schedule = %d", got)
	}
	if got := sentTo(vm, 7); got != 2500 {
		t.Errorf("sent = %d, want 2500", got)
	}
	ds := destIDs(vm)
	if len(ds) != 1 || ds[0] != 7 {
		t.Errorf("destinations = %v", ds)
	}
	if vm.g.BandwidthBps != 1e8 {
		t.Error("guarantee not kept")
	}
}
