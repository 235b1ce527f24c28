package transport

import (
	"testing"

	"repro/internal/pacer"
)

// TestSteadyExchangeAllocatesNothing: once a transfer between two hosts
// is under way, moving data one way and acks the other through the
// Fabric allocates nothing — packets come from the engine's arena and
// segments from the Fabric's free list, and both go back on delivery —
// whether the hosts send directly or through their pacers.
func TestSteadyExchangeAllocatesNothing(t *testing.T) {
	for _, paced := range []bool{false, true} {
		nw := testNet(t, 312e3)
		f := NewFabric(nw)
		if paced {
			for i, hid := range []int{0, 1} {
				h := nw.Hosts[hid]
				h.EnablePacing(pacer.NewBatcher(10 * gbps))
				h.AddVM(pacer.NewVM(100*(i+1), pacer.Guarantee{
					BandwidthBps: 5 * gbps, BurstBytes: 15e3, BurstRateBps: 10 * gbps, MTUBytes: 1518,
				}, 0))
			}
		}
		src := f.AddEndpoint(100, 0, Options{Paced: paced})
		f.AddEndpoint(200, 1, Options{Paced: paced})
		src.SendMessage(200, 1<<30, nil)
		nw.Sim.Run(2_000_000) // warm: arena, free lists, rings, wheel
		before := src.Conn(200).SegmentsOut
		allocs := testing.AllocsPerRun(20, func() { nw.Sim.Run(nw.Sim.Now() + 50_000) })
		if segs := src.Conn(200).SegmentsOut - before; segs < 20*15 {
			t.Fatalf("paced=%v: only %d segments in the measured runs", paced, segs)
		}
		if allocs != 0 {
			t.Errorf("paced=%v: %v allocations per 50 µs of steady transfer, want 0", paced, allocs)
		}
	}
}

// TestIncastReturnsEveryPacket: 32 senders into one receiver through
// shallow buffers (overflow drops) while the receiver's down-link fails
// for 2 ms (drops of buffered, serializing and propagating packets).
// Every packet the transport took from the arena comes back — delivered
// ones through the Fabric, lost ones at their drop site — so the drained
// run ends with none in use.
func TestIncastReturnsEveryPacket(t *testing.T) {
	nw := testNet(t, 30e3)
	f := NewFabric(nw)
	f.AddEndpoint(200, 1, Options{})
	const senders = 32
	completed := 0
	for i := 0; i < senders; i++ {
		host := []int{0, 2, 3, 4, 5}[i%5]
		e := f.AddEndpoint(100+i, host, Options{MinRTONs: 10_000_000})
		e.SendMessage(200, 300_000, func(*Message) { completed++ })
	}
	down := nw.Queues[nw.Tree.RackDownPort(1).ID]
	nw.Sim.At(300_000, down.Fail)
	nw.Sim.At(2_300_000, down.Restore)
	nw.Sim.Run(300e9)
	if completed != senders {
		t.Fatalf("completed %d of %d", completed, senders)
	}
	if nw.TotalDrops() == 0 || down.Stats.FaultDroppedPkts == 0 {
		t.Fatalf("drops %d, fault drops %d: the run exercises no drop site", nw.TotalDrops(), down.Stats.FaultDroppedPkts)
	}
	rc := nw.Sim.RuntimeCounters()
	if rc.PktHits+rc.PktMisses == 0 {
		t.Fatal("the transport took no packet from the arena")
	}
	if rc.PktInUse != 0 {
		t.Errorf("%d packets in use after drain (%d overflow and %d fault drops), want 0",
			rc.PktInUse, nw.TotalDrops(), down.Stats.FaultDroppedPkts)
	}
}
