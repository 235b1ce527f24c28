package pacer

import "testing"

// newBackloggedHost returns the datacenter's shape in miniature: one
// NIC, 4 VMs, each with 6 destinations behind hose buckets.
func newBackloggedHost() *HostPacer {
	h := NewHostPacer(NewBatcher(tenGbE))
	for i := 1; i <= 4; i++ {
		vm := NewVM(i, Guarantee{BandwidthBps: 2e9 / 8, BurstBytes: 15e3, BurstRateBps: tenGbE, MTUBytes: 1538}, 0)
		for d := 1; d <= 6; d++ {
			vm.SetDestRate(0, 100+d, 2e9/8/6)
		}
		h.AddVM(vm)
	}
	return h
}

// drain runs the soft-timer loop until the host is empty: a batch when
// one is due, else a jump to the next release. It returns the time it
// stopped at and the wire bytes it consumed.
func drain(h *HostPacer, now int64) (int64, int) {
	bytes := 0
	for h.Pending() > 0 {
		b := h.NextBatch(now)
		if b == nil {
			next := int64(1 << 62)
			for _, vm := range h.VMs() {
				if r, ok := vm.NextEventTime(); ok && r < next {
					next = r
				}
			}
			now = next
			continue
		}
		for _, p := range b.Packets {
			bytes += p.Bytes
		}
		now = b.End
	}
	return now, bytes
}

// TestSteadyStateCycleAllocatesNothing: once the rings, the batch and
// the free list have reached their working size, Enqueue → NextBatch →
// consume allocates neither frames nor batches.
func TestSteadyStateCycleAllocatesNothing(t *testing.T) {
	h := newBackloggedHost()
	var now int64
	cycle := func() {
		for _, vm := range h.VMs() {
			for k := 0; k < 4; k++ {
				for d := 1; d <= 6; d++ {
					vm.Enqueue(now, 100+d, 1538, nil)
				}
			}
		}
		now, _ = drain(h, now)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state Enqueue → NextBatch cycle: %.1f allocs per run, want 0", allocs)
	}
}

// TestRecycledFramesDropTheirRef: the free list must not keep the
// integration's payload (the simulator's packet) alive, and a batch's
// frames are only handed back by the NextBatch after the one that
// returned them.
func TestRecycledFramesDropTheirRef(t *testing.T) {
	h := newBackloggedHost()
	type payload struct{ id int }
	for i, vm := range h.VMs() {
		for d := 1; d <= 6; d++ {
			vm.Enqueue(0, 100+d, 1538, &payload{id: 10*i + d})
		}
	}
	b := h.NextBatch(0)
	if b == nil {
		t.Fatal("no batch for a backlogged host")
	}
	if len(h.frames.free) != 0 {
		t.Fatalf("%d frames recycled while their batch is still the caller's to read", len(h.frames.free))
	}
	seen := 0
	for _, p := range b.Packets {
		if !p.Void {
			if _, ok := p.Ref.(*payload); !ok {
				t.Fatalf("data frame lost its Ref: %+v", *p)
			}
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("batch carried no data frame")
	}
	drain(h, b.End)
	h.NextBatch(1 << 40) // nothing left: recycles the last batch
	if len(h.frames.free) < 24 {
		t.Errorf("free list holds %d frames after 24 data frames went out", len(h.frames.free))
	}
	for _, p := range h.frames.free {
		if p.Ref != nil {
			t.Fatalf("recycled frame keeps Ref %v", p.Ref)
		}
	}
	batch := h.batch.Packets
	for _, p := range batch[:cap(batch)] {
		if p != nil {
			t.Fatal("the pacer's batch still points at a recycled frame")
		}
	}
}
