package netsim

import (
	"runtime"
	"testing"

	"repro/internal/pacer"
)

// TestPacedBacklogHeapPerSegment bounds what one segment waiting in a
// host's pacer costs the heap: its arena Packet plus its slot in a
// destination queue. 20,000 segments to 8 destinations are queued on one
// host without running the clock, so the pacer holds every one. With
// 136-byte Packets in 32 KiB arena chunks and 2 KiB queue blocks shared
// by the VM's queues a segment costs about 182 bytes; 160-byte Packets
// and per-destination doubling rings cost about 226.
func TestPacedBacklogHeapPerSegment(t *testing.T) {
	const (
		segments = 20_000
		dests    = 8
		bound    = 205 // bytes per queued segment
	)
	s := NewSim()
	h := NewHost(s, 0)
	h.EnablePacing(pacer.NewBatcher(10 * gbps))
	vm := pacer.NewVM(1, pacer.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 15e3, BurstRateBps: 10 * gbps, MTUBytes: 1500}, 0)
	for d := 0; d < dests; d++ {
		vm.SetDestRate(0, 10+d, 2*gbps/dests)
	}
	h.AddVM(vm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < segments; i++ {
		p := s.AllocPacket()
		p.Src, p.Dst, p.SrcVM, p.DstVM, p.Size = 0, 1+i%dests, 1, 10+i%dests, 1500
		h.SendPaced(1, p)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if vm.Pending() != segments {
		t.Fatalf("pacer holds %d segments, want %d", vm.Pending(), segments)
	}
	per := float64(after.HeapAlloc-before.HeapAlloc) / segments
	t.Logf("%.1f heap bytes per queued segment", per)
	if per > bound {
		t.Errorf("%.1f heap bytes per queued segment, want at most %d", per, bound)
	}
	runtime.KeepAlive(h)
}
