package pacer

import (
	"math"
	"testing"
	"testing/quick"
)

// release books n bytes at the earliest time at or after now that the
// bucket allows, the way the VM scheduler does: Free finds the time,
// Commit spends the tokens there.
func release(b *TokenBucket, now int64, n int) int64 {
	r := b.Free(now, n)
	b.Commit(r, n)
	return r
}

func TestTokenBucketImmediateWithinBurst(t *testing.T) {
	b := NewTokenBucket(1e6, 3000, 0) // 1 MB/s, 3000 B bucket
	if r := release(b, 0, 1500); r != 0 {
		t.Errorf("first packet release = %d, want 0", r)
	}
	if r := release(b, 0, 1500); r != 0 {
		t.Errorf("second packet within burst release = %d, want 0", r)
	}
	// Bucket empty: third packet waits 1500B / 1MB/s = 1.5 ms.
	if r := release(b, 0, 1500); r != 1_500_000 {
		t.Errorf("third packet release = %d, want 1500000", r)
	}
}

func TestTokenBucketSpacingAtRate(t *testing.T) {
	// Paper §1: a 9 Gbps limit with 1.5 KB packets needs 1333 ns
	// spacing... at 9 Gbps, 1.5KB = 1333 ns. Verify spacing for a
	// backlogged source.
	rate := 9e9 / 8 // bytes per second
	b := NewTokenBucket(rate, 1500, 0)
	prev := release(b, 0, 1500)
	for i := 0; i < 100; i++ {
		r := release(b, 0, 1500)
		gap := r - prev
		want := int64(math.Round(1500 / rate * 1e9)) // ≈1333 ns
		if gap < want-2 || gap > want+2 {
			t.Fatalf("packet %d gap = %d ns, want ≈%d", i, gap, want)
		}
		prev = r
	}
}

func TestTokenBucketRefillAfterIdle(t *testing.T) {
	b := NewTokenBucket(1e6, 3000, 0)
	release(b, 0, 3000) // drain the bucket
	// After 10 ms idle the bucket is full again (capped at size), so a
	// full-size burst is free at once.
	if r := b.Free(10_000_000, 3000); r != 10_000_000 {
		t.Errorf("full bucket after idle frees 3000 B at %d, want 10000000", r)
	}
	if r := release(b, 10_000_000, 3000); r != 10_000_000 {
		t.Errorf("release = %d, want 10000000", r)
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	b := NewTokenBucket(0, 0, 0)
	if r := release(b, 5, 1e6); r != 5 {
		t.Errorf("unlimited bucket delayed packet: %d", r)
	}
	if r := release(b, 5, 1e6); r != 5 {
		t.Errorf("unlimited bucket delayed a second packet: %d", r)
	}
}

// A frame larger than the bucket releases once the bucket is full and
// overdraws it: the next frame waits for the whole overdraft to refill.
func TestTokenBucketOversizeFrame(t *testing.T) {
	b := NewTokenBucket(1e6, 1500, 0)
	if r := release(b, 0, 3000); r != 0 {
		t.Errorf("oversize frame on a full bucket released at %d, want 0", r)
	}
	// 1500 B of overdraft plus 1500 B for the frame at 1 MB/s: 3 ms.
	if r := release(b, 0, 1500); r != 3_000_000 {
		t.Errorf("frame after the overdraft released at %d, want 3000000", r)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	b := NewTokenBucket(1e6, 1500, 0)
	release(b, 0, 1500)
	b.SetRate(0, 2e6)
	if got := b.rate; got != 2e6 {
		t.Errorf("Rate = %v", got)
	}
	// Next packet drains at the new rate: 1500/2e6 s = 750 µs.
	if r := release(b, 0, 1500); r != 750_000 {
		t.Errorf("release = %d, want 750000", r)
	}
}

// Property: a backlogged bucket's output never exceeds rate·t + size
// over any window (the paper's conformance requirement).
func TestBucketConformanceProperty(t *testing.T) {
	f := func(rateKBps uint16, sizeKB, npkts uint8, seed int64) bool {
		rate := float64(rateKBps)*1e3 + 1e3
		size := float64(sizeKB)*100 + 1500
		b := NewTokenBucket(rate, size, 0)
		c := NewConformanceChecker(rate, size)
		n := int(npkts)%64 + 1
		x := uint64(seed)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			bytes := int(x%1400) + 100
			r := release(b, 0, bytes)
			c.Observe(r, bytes)
		}
		// Slack: each Free may round release up by < 1 ns, which can
		// under-count the window by ~rate*1e-9 bytes per packet.
		return c.Check(float64(n)*rate*2e-9+1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConformanceCheckerDetectsViolation(t *testing.T) {
	c := NewConformanceChecker(1e6, 1000)
	c.Observe(0, 1000)
	c.Observe(0, 1000) // 2000 bytes at t=0 > burst 1000
	if err := c.Check(0); err == nil {
		t.Error("checker missed a clear violation")
	}
}

func TestHoseAllocateSimple(t *testing.T) {
	send := map[int]float64{1: 100, 2: 100}
	recv := map[int]float64{3: 100}
	flows := []Flow{{1, 3}, {2, 3}}
	rates := HoseAllocate(send, recv, flows)
	// Receiver 3 is the bottleneck: 50/50 (paper §4.1: "each sender
	// would achieve a bandwidth of B/N").
	for _, f := range flows {
		if math.Abs(rates[f]-50) > 1e-6 {
			t.Errorf("rate%v = %v, want 50", f, rates[f])
		}
	}
}

func TestHoseAllocateSenderBottleneck(t *testing.T) {
	send := map[int]float64{1: 30}
	recv := map[int]float64{2: 100, 3: 100}
	rates := HoseAllocate(send, recv, []Flow{{1, 2}, {1, 3}})
	for f, r := range rates {
		if math.Abs(r-15) > 1e-6 {
			t.Errorf("rate%v = %v, want 15", f, r)
		}
	}
}

func TestHoseAllocateMaxMin(t *testing.T) {
	// Sender 1 feeds receivers 10 (shared with sender 2) and 11
	// (exclusive). Receiver 10 caps at 40 -> 20 each; sender 1's
	// leftover (100-20=80) goes to receiver 11 capped at 60.
	send := map[int]float64{1: 100, 2: 100}
	recv := map[int]float64{10: 40, 11: 60}
	rates := HoseAllocate(send, recv, []Flow{{1, 10}, {2, 10}, {1, 11}})
	if math.Abs(rates[Flow{1, 10}]-20) > 1e-6 {
		t.Errorf("rate(1,10) = %v, want 20", rates[Flow{1, 10}])
	}
	if math.Abs(rates[Flow{2, 10}]-20) > 1e-6 {
		t.Errorf("rate(2,10) = %v, want 20", rates[Flow{2, 10}])
	}
	if math.Abs(rates[Flow{1, 11}]-60) > 1e-6 {
		t.Errorf("rate(1,11) = %v, want 60", rates[Flow{1, 11}])
	}
}

func TestHoseAllocateMissingGuarantee(t *testing.T) {
	rates := HoseAllocate(map[int]float64{1: 10}, map[int]float64{}, []Flow{{1, 9}})
	if rates[Flow{1, 9}] != 0 {
		t.Errorf("flow to unguaranteed receiver got rate %v", rates[Flow{1, 9}])
	}
}

// Property: allocations never violate sender or receiver caps and are
// never negative.
func TestHoseAllocateFeasibilityProperty(t *testing.T) {
	f := func(caps []uint8, edges []uint16) bool {
		if len(caps) == 0 {
			return true
		}
		send := map[int]float64{}
		recv := map[int]float64{}
		for i, c := range caps {
			send[i] = float64(c%50) + 1
			recv[i+100] = float64(c%37) + 1
		}
		var flows []Flow
		for _, e := range edges {
			src := int(e) % len(caps)
			dst := 100 + int(e>>8)%len(caps)
			flows = append(flows, Flow{src, dst})
		}
		rates := HoseAllocate(send, recv, flows)
		sUsed := map[int]float64{}
		rUsed := map[int]float64{}
		for f2, r := range rates {
			if r < 0 {
				return false
			}
			sUsed[f2.Src] += r
			rUsed[f2.Dst] += r
		}
		for s, u := range sUsed {
			if u > send[s]*(1+1e-6)+1e-9 {
				return false
			}
		}
		for d, u := range rUsed {
			if u > recv[d]*(1+1e-6)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetDestRate(t *testing.T) {
	vm := NewVM(1, Guarantee{BandwidthBps: 100, BurstBytes: 1500}, 0)
	vm.SetDestRate(0, 2, 40)
	if vm.DestRate(2) != 40 {
		t.Error("allocation not applied to destination bucket")
	}
	// Zero rate removes the bucket.
	vm.SetDestRate(0, 2, 0)
	if vm.DestRate(2) != 0 {
		t.Error("zero rate should remove destination bucket")
	}
}
