package pacer

import (
	"testing"
	"testing/quick"
)

// These are regression tests for the pacer's joint-conformance
// property: the chronological scheduler must keep EVERY bucket's
// constraint over EVERY sliding window, jointly. An earlier
// stamp-at-enqueue design charged the {B,S} bucket in the past for
// packets the destination bucket deferred, letting deferred packets
// cluster into line-rate trains that overflowed switch buffers the
// placement manager had sized exactly.

// windowConformant checks that (time, bytes) release events never
// exceed rate·w + burst over any window, with slack for per-packet
// ceil rounding.
func windowConformant(times []int64, sizes []int, rate, burst, slack float64) bool {
	for i := range times {
		var sum float64
		for j := i; j < len(times); j++ {
			sum += float64(sizes[j])
			w := float64(times[j]-times[i]) / 1e9
			if sum > rate*w+burst+slack {
				return false
			}
		}
	}
	return true
}

func TestChainJointConformanceTwoFlows(t *testing.T) {
	// The exact failure pattern from the shuffle workload: flow X is
	// backlogged and deferred by its destination bucket; flow Y then
	// sends. Total egress must still respect {B, S} in every window,
	// and each flow its destination rate.
	const (
		B    = 1e8 // 100 MB/s
		S    = 3000
		Bmax = 1e9
		rX   = 2e7 // 20 MB/s to X
		rY   = 2e7
	)
	vm := NewVM(1, Guarantee{BandwidthBps: B, BurstBytes: S, BurstRateBps: Bmax, MTUBytes: 1500}, 0)
	vm.SetDestRate(0, 100, rX)
	vm.SetDestRate(0, 200, rY)

	// Backlog 200 packets to X at t=0, then 200 to Y at t=1ms.
	for i := 0; i < 200; i++ {
		vm.Enqueue(0, 100, 1500, 100)
	}
	for i := 0; i < 200; i++ {
		vm.Enqueue(1_000_000, 200, 1500, 200)
	}
	vm.Schedule(1 << 62)

	var allT, xT, yT []int64
	var allS, xS, yS []int
	for {
		p, ok := vm.PopReady(1 << 62)
		if !ok {
			break
		}
		allT = append(allT, p.Release)
		allS = append(allS, p.Bytes)
		if p.Ref == 100 {
			xT = append(xT, p.Release)
			xS = append(xS, p.Bytes)
		} else {
			yT = append(yT, p.Release)
			yS = append(yS, p.Bytes)
		}
	}
	if len(allT) != 400 {
		t.Fatalf("scheduled %d of 400", len(allT))
	}
	slack := 1600.0 // one MTU of rounding slack
	if !windowConformant(allT, allS, B, S, slack) {
		t.Error("aggregate violates {B,S} over a sliding window")
	}
	if !windowConformant(xT, xS, rX, S, slack) {
		t.Error("flow X violates its destination rate")
	}
	if !windowConformant(yT, yS, rY, S, slack) {
		t.Error("flow Y violates its destination rate")
	}
}

func TestChainDeferredFlowDoesNotStealBudget(t *testing.T) {
	// Flow X's deferred packets must not let the aggregate burst when
	// flow Y becomes active: the moment Y's first packet releases,
	// X+Y together stay under B.
	const B = 1e8
	vm := NewVM(1, Guarantee{BandwidthBps: B, BurstBytes: 1500, BurstRateBps: 1e9, MTUBytes: 1500}, 0)
	vm.SetDestRate(0, 1, 1e7)
	vm.SetDestRate(0, 2, 9e7)
	for i := 0; i < 100; i++ {
		vm.Enqueue(0, 1, 1500, nil) // slow flow backlog
	}
	vm.Schedule(1 << 62)
	// Now a fast flow joins late.
	for i := 0; i < 100; i++ {
		vm.Enqueue(5_000_000, 2, 1500, nil)
	}
	vm.Schedule(1 << 62)
	var times []int64
	var sizes []int
	for {
		p, ok := vm.PopReady(1 << 62)
		if !ok {
			break
		}
		times = append(times, p.Release)
		sizes = append(sizes, p.Bytes)
	}
	// Events popped from a heap are sorted; verify joint conformance.
	if !windowConformant(times, sizes, B, 1500, 1600) {
		t.Error("late-joining flow broke aggregate conformance")
	}
}

// Property: random enqueue schedules across random destinations stay
// jointly conformant.
func TestChainConformanceProperty(t *testing.T) {
	f := func(seed int64, nDst8 uint8, npkts8 uint8) bool {
		nDst := int(nDst8)%4 + 1
		npkts := int(npkts8)%120 + 10
		const B = 5e7
		const S = 4500
		vm := NewVM(1, Guarantee{BandwidthBps: B, BurstBytes: S, BurstRateBps: 5e8, MTUBytes: 1500}, 0)
		for d := 0; d < nDst; d++ {
			vm.SetDestRate(0, d, B/float64(nDst))
		}
		x := uint64(seed)
		now := int64(0)
		for i := 0; i < npkts; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			now += int64(x % 200_000) // up to 200 µs apart
			size := int(x%1400) + 100
			dst := int(x>>32) % nDst
			vm.Enqueue(now, dst, size, nil)
		}
		vm.Schedule(1 << 62)
		var times []int64
		var sizes []int
		for {
			p, ok := vm.PopReady(1 << 62)
			if !ok {
				return false // lost packets
			}
			times = append(times, p.Release)
			sizes = append(sizes, p.Bytes)
			if len(times) == npkts {
				break
			}
		}
		return windowConformant(times, sizes, B, S, float64(npkts)*2+1600)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSchedulerPreservesPerDestFIFO(t *testing.T) {
	vm := NewVM(1, Guarantee{BandwidthBps: 1e8, BurstBytes: 1500, BurstRateBps: 1e9, MTUBytes: 1500}, 0)
	var refs []int
	for i := 0; i < 50; i++ {
		vm.Enqueue(0, 7, 1000, i)
	}
	vm.Schedule(1 << 62)
	for {
		p, ok := vm.PopReady(1 << 62)
		if !ok {
			break
		}
		refs = append(refs, p.Ref.(int))
	}
	for i := 1; i < len(refs); i++ {
		if refs[i] < refs[i-1] {
			t.Fatalf("per-destination order violated: %v", refs)
		}
	}
}

func TestNextEventTimeTracksFeasibility(t *testing.T) {
	vm := NewVM(1, Guarantee{BandwidthBps: 1e6, BurstBytes: 1500, BurstRateBps: 0, MTUBytes: 1500}, 0)
	if _, ok := vm.NextEventTime(); ok {
		t.Error("empty VM reported an event")
	}
	vm.Enqueue(0, 2, 1500, nil) // burst allows immediate
	if r, ok := vm.NextEventTime(); !ok || r != 0 {
		t.Errorf("first packet event = %v, %v", r, ok)
	}
	vm.Enqueue(0, 2, 1500, nil) // must wait 1500B @ 1MB/s = 1.5ms
	vm.Schedule(0)              // commit only the immediate one
	vm.PopReady(0)
	if r, ok := vm.NextEventTime(); !ok || r != 1_500_000 {
		t.Errorf("second packet event = %v, %v; want 1500000", r, ok)
	}
}

func TestDestRateAccessor(t *testing.T) {
	vm := NewVM(1, Guarantee{BandwidthBps: 1e8, BurstBytes: 1500}, 0)
	if vm.DestRate(5) != 0 {
		t.Error("missing bucket should report 0")
	}
	vm.SetDestRate(0, 5, 123)
	if vm.DestRate(5) != 123 {
		t.Error("DestRate mismatch")
	}
}

func TestBucketFreeCommit(t *testing.T) {
	b := NewTokenBucket(1e6, 3000, 0) // 1 MB/s, 3000 B
	// Full bucket: 1500 B free immediately.
	if got := b.Free(0, 1500); got != 0 {
		t.Errorf("Free = %d, want 0", got)
	}
	b.Commit(0, 1500)
	if got := b.Free(0, 1500); got != 0 {
		t.Errorf("Free after 1500 = %d, want 0 (1500 left)", got)
	}
	b.Commit(0, 1500)
	// Empty: next 1500 at 1.5 ms.
	if got := b.Free(0, 1500); got != 1_500_000 {
		t.Errorf("Free = %d, want 1500000", got)
	}
	// Free is monotone in t and does not mutate.
	if got := b.Free(1_000_000, 1500); got != 1_500_000 {
		t.Errorf("Free(1ms) = %d, want 1500000", got)
	}
	if got := b.Free(2_000_000, 1500); got != 2_000_000 {
		t.Errorf("Free(2ms) = %d, want 2000000 (tokens available)", got)
	}
	// Oversize requests clamp to bucket size rather than never
	// releasing.
	if got := b.Free(10_000_000, 10_000); got != 10_000_000 {
		t.Errorf("oversize Free = %d", got)
	}
	// Unlimited bucket.
	u := NewTokenBucket(0, 0, 0)
	if got := u.Free(7, 1e6); got != 7 {
		t.Errorf("unlimited Free = %d", got)
	}
	u.Commit(9, 5)
	if got := u.Free(3, 10); got != 3 {
		t.Errorf("unlimited Free = %d, want 3 (never constrains)", got)
	}
}
