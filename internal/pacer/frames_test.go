package pacer

import (
	"testing"
	"unsafe"
)

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

// TestSteadyStateCycleAllocatesNothing: once the rings and the batch
// have reached their working size, Enqueue → NextBatch → consume
// allocates nothing: frames are values in the queues and the batch.
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

// TestBatchKeepsNoRef: the pacer must not keep the integration's
// payload (the simulator's packet) alive once it has handed it out. A
// batch carries its data frames' Refs until the next NextBatch, which
// clears the batch's whole backing array; the queues clear each slot
// they pop, so neither a queue's blocks nor the free list keep one.
func TestBatchKeepsNoRef(t *testing.T) {
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
	seen := 0
	for _, p := range b.Packets {
		if !p.Void {
			if _, ok := p.Ref.(*payload); !ok {
				t.Fatalf("data frame lost its Ref: %+v", p)
			}
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("batch carried no data frame")
	}
	drain(h, b.End)
	if h.NextBatch(1<<40) != nil { // nothing left: only clears the last batch
		t.Fatal("batch from a drained host")
	}
	batch := h.batch.Packets
	for _, p := range batch[:cap(batch)] {
		if p.Ref != nil {
			t.Fatalf("the pacer's batch still holds Ref %v", p.Ref)
		}
	}
	for _, vm := range h.VMs() {
		for _, p := range vm.ready.buf {
			if p.Ref != nil {
				t.Fatalf("vm %d's ready queue still holds Ref %v", vm.ID, p.Ref)
			}
		}
		chains := []*block{vm.free}
		for _, d := range vm.dests {
			chains = append(chains, d.q.head)
		}
		for _, b := range chains {
			for ; b != nil; b = b.next {
				for _, e := range b.e {
					if e.ref != nil {
						t.Fatalf("vm %d's queue blocks still hold Ref %v", vm.ID, e.ref)
					}
				}
			}
		}
	}
}

// TestFrameSize bounds the two per-packet records: a Packet, which the
// ready queue and every batch hold inline, and the destination queue's
// entry, which every waiting segment occupies.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 64 {
		t.Errorf("Packet is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(entry{}); n > 40 {
		t.Errorf("queue entry is %d bytes, want at most 40", n)
	}
}
