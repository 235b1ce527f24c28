package pacer

import (
	"math"
	"testing"

	"repro/internal/units"
)

const tenGbE = 10e9 / 8 // bytes per second

func newTestVM(id int, bwBps float64, burst float64) *VM {
	return NewVM(id, Guarantee{
		BandwidthBps: bwBps,
		BurstBytes:   burst,
		BurstRateBps: 0, // uncapped burst rate unless a test needs it
		MTUBytes:     1500,
	}, 0)
}

func TestBatchVoidSpacing(t *testing.T) {
	// Paper Figure 9: a VM limited to 2 Gbps on a 10 GbE link gets one
	// data packet every 5 packet slots; voids fill the other 4.
	vm := newTestVM(1, 2e9/8, 1500)
	for i := 0; i < 12; i++ {
		vm.Enqueue(0, 2, 1500, nil)
	}
	b := NewBatcher(tenGbE)
	batch := b.Build(0, []*VM{vm})
	if batch.DataPackets() == 0 {
		t.Fatal("empty batch")
	}
	// The void:data byte ratio must approximate (10-2)/2 = 4.
	ratio := float64(batch.VoidBytes) / float64(batch.DataBytes)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("void/data byte ratio = %v, want ≈4", ratio)
	}
	// Every data packet must depart within one void slot of its stamp.
	slotNs := float64(units.MinWireBytes) / tenGbE * 1e9 // 67.2 ns
	for _, p := range batch.Packets {
		if p.Void {
			continue
		}
		err := float64(p.Wire - p.Release)
		if math.Abs(err) > slotNs {
			t.Errorf("packet wire=%d release=%d: error %v ns > slot %v", p.Wire, p.Release, err, slotNs)
		}
	}
}

func TestBatchWirePositionsMonotone(t *testing.T) {
	vm := newTestVM(1, 1e9/8, 3000)
	for i := 0; i < 20; i++ {
		vm.Enqueue(0, 2, 1000, nil)
	}
	b := NewBatcher(tenGbE)
	batch := b.Build(0, []*VM{vm})
	prevEnd := batch.Start
	for i, p := range batch.Packets {
		if p.Wire < prevEnd {
			t.Fatalf("packet %d overlaps previous frame: wire %d < %d", i, p.Wire, prevEnd)
		}
		prevEnd = p.Wire + b.wireNs(p.Bytes)
	}
	if batch.End != prevEnd {
		t.Errorf("batch End = %d, want %d", batch.End, prevEnd)
	}
}

func TestBatchRespectsWindow(t *testing.T) {
	vm := newTestVM(1, tenGbE, 1e6)
	for i := 0; i < 10000; i++ {
		vm.Enqueue(0, 2, 1500, nil)
	}
	b := NewBatcher(tenGbE)
	batch := b.Build(0, []*VM{vm})
	// 50 µs at 10 GbE is 62500 bytes ≈ 41 MTU packets.
	if got := batch.End - batch.Start; got > b.BatchNs+b.wireNs(1500) {
		t.Errorf("batch duration %d ns overruns window %d", got, b.BatchNs)
	}
	if vm.Pending() == 0 {
		t.Error("overflow packets should remain queued")
	}
}

func TestBatchNoVoidsWhenIdle(t *testing.T) {
	// Paper: "void packets are generated only when there is another
	// packet waiting". A single packet produces no trailing voids.
	vm := newTestVM(1, 1e6, 1500)
	vm.Enqueue(0, 2, 1500, nil)
	b := NewBatcher(tenGbE)
	batch := b.Build(0, []*VM{vm})
	if batch.VoidBytes != 0 {
		t.Errorf("idle batch contains %d void bytes", batch.VoidBytes)
	}
	if batch.DataPackets() != 1 {
		t.Errorf("data packets = %d, want 1", batch.DataPackets())
	}
}

func TestBatchMergesVMsInReleaseOrder(t *testing.T) {
	vm1 := newTestVM(1, 2e9/8, 1500)
	vm2 := newTestVM(2, 1e9/8, 1500)
	for i := 0; i < 5; i++ {
		vm1.Enqueue(0, 9, 1500, vm1.ID)
		vm2.Enqueue(0, 9, 1500, vm2.ID)
	}
	b := NewBatcher(tenGbE)
	batch := b.Build(0, []*VM{vm1, vm2})
	var prev int64 = -1
	for _, p := range batch.Packets {
		if p.Void {
			continue
		}
		if p.Release < prev {
			t.Fatalf("data packets out of release order: %d after %d", p.Release, prev)
		}
		prev = p.Release
	}
	// Both VMs must appear (each tagged its frames with its ID).
	seen := map[int]bool{}
	for _, p := range batch.Packets {
		if !p.Void {
			seen[p.Ref.(int)] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Errorf("batch missing a VM's packets: %v", seen)
	}
}

func TestVoidFramesAreLegalSizes(t *testing.T) {
	vm := newTestVM(1, 3e9/8, 1500)
	for i := 0; i < 30; i++ {
		vm.Enqueue(0, 2, 700+i*13, nil)
	}
	b := NewBatcher(tenGbE)
	batch := b.Build(0, []*VM{vm})
	for _, p := range batch.Packets {
		if p.Void && p.Bytes < units.MinWireBytes {
			t.Errorf("void frame of %d bytes < minimum %d", p.Bytes, units.MinWireBytes)
		}
	}
}

func TestHostPacerSoftTimerChain(t *testing.T) {
	vm := newTestVM(1, 1e9/8, 1500)
	h := NewHostPacer(NewBatcher(tenGbE))
	h.AddVM(vm)
	for i := 0; i < 400; i++ {
		vm.Enqueue(0, 2, 1500, nil)
	}
	var lastEnd int64
	batches := 0
	for {
		batch := h.NextBatch(lastEnd)
		if batch == nil {
			break
		}
		if batch.Start < lastEnd {
			t.Fatalf("batch starts at %d before previous end %d", batch.Start, lastEnd)
		}
		lastEnd = batch.End
		batches++
		if batches > 10000 {
			t.Fatal("runaway batch loop")
		}
	}
	if h.Pending() != 0 {
		t.Errorf("%d packets never batched", h.Pending())
	}
	if batches < 2 {
		t.Errorf("expected multiple batches, got %d", batches)
	}
}

func TestHostPacerIdleFastForward(t *testing.T) {
	vm := newTestVM(1, 1e6, 1500)
	h := NewHostPacer(NewBatcher(tenGbE))
	h.AddVM(vm)
	if b := h.NextBatch(0); b != nil {
		t.Error("idle NIC built a batch")
	}
	// Enqueue a packet whose release is far in the future; the next
	// batch must start at the release, not at now.
	vm.Enqueue(0, 2, 1500, nil)
	vm.Enqueue(0, 2, 1500, nil) // this one waits for refill
	b1 := h.NextBatch(0)
	if b1 == nil {
		t.Fatal("no batch for pending packet")
	}
}

func TestEndToEndConformanceThroughBatcher(t *testing.T) {
	// The headline pacer invariant: wire timestamps of data packets
	// must conform to B·t + S (+ one void slot of slack per packet).
	rate := 2e9 / 8
	burst := 3000.0
	vm := NewVM(1, Guarantee{BandwidthBps: rate, BurstBytes: burst, BurstRateBps: tenGbE, MTUBytes: 1500}, 0)
	h := NewHostPacer(NewBatcher(tenGbE))
	h.AddVM(vm)
	for i := 0; i < 300; i++ {
		vm.Enqueue(0, 2, 1500, nil)
	}
	chk := NewConformanceChecker(rate, burst)
	var lastEnd int64
	for {
		b := h.NextBatch(lastEnd)
		if b == nil {
			break
		}
		for _, p := range b.Packets {
			if !p.Void {
				chk.Observe(p.Wire, p.Bytes)
			}
		}
		lastEnd = b.End
	}
	// Slack: one MTU of bytes for wire-position rounding.
	if err := chk.Check(1600); err != nil {
		t.Errorf("paced output violates arrival curve: %v", err)
	}
}

func TestMinimumSpacingSixtyEightNs(t *testing.T) {
	// Paper: "at 10Gbps, we can achieve an inter-packet spacing as low
	// as 68ns" — one minimum void frame between data frames.
	vm := newTestVM(1, tenGbE*0.9, 1e6) // 9 Gbps: 1/10 of slots are voids
	for i := 0; i < 40; i++ {
		vm.Enqueue(0, 2, 1350, nil)
	}
	b := NewBatcher(tenGbE)
	batch := b.Build(0, []*VM{vm})
	minGap := int64(math.MaxInt64)
	var prevEnd int64 = -1
	for _, p := range batch.Packets {
		if p.Void {
			continue
		}
		if prevEnd >= 0 {
			if gap := p.Wire - prevEnd; gap > 0 && gap < minGap {
				minGap = gap
			}
		}
		prevEnd = p.Wire + b.wireNs(p.Bytes)
	}
	if minGap == math.MaxInt64 {
		t.Skip("no gapped packets in batch")
	}
	// One 84-byte void at 10 GbE is 67.2 ns, rounded to 67 ns.
	if minGap < 60 || minGap > 75 {
		t.Errorf("minimum spacing = %d ns, want ≈67-68", minGap)
	}
}
