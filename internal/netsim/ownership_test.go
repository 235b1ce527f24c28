package netsim

import (
	"testing"

	"repro/internal/pacer"
)

// TestDropSitesRecycleArenaPackets drives every place the engine loses
// a packet — buffer overflow; a lossy port; a down port; a port failing
// with packets buffered, serializing and propagating; a down switch; an
// unroutable destination; a down host receiving, sending and sending
// paced; a void at a switch and a stray one at a host — first with
// arena packets, which must all come back, then with packets the engine
// did not allocate, which it must leave alone. The arena population
// ends at zero both times and never goes below it.
func TestDropSitesRecycleArenaPackets(t *testing.T) {
	for _, arena := range []bool{true, false} {
		nw := buildNet(t)
		s := nw.Sim
		var sent, delivered int64
		send := func(h *Host, dst, size int, void bool) {
			p := &Packet{}
			if arena {
				p = s.AllocPacket()
			}
			p.Src, p.Dst, p.Size, p.Void = h.ID, dst, int32(size), void
			sent++
			h.Send(p)
		}
		for _, h := range nw.Hosts {
			h.FreeOnDeliver = true
			h.OnDeliver = func(*Packet, int64) { delivered++ }
		}
		// Overflow: a 3,000 B NIC holds two of five frames sent at once.
		nw.Hosts[0].NIC.BufferBytes = 3000
		for i := 0; i < 5; i++ {
			send(nw.Hosts[0], 1, 1500, false)
		}
		// Lossy and down ports.
		nw.Hosts[2].NIC.SetLossy(true)
		send(nw.Hosts[2], 1, 1500, false)
		nw.Queues[nw.Tree.RackDownPort(3).ID].Fail()
		send(nw.Hosts[0], 3, 1500, false)
		// A port failing at 1.3 µs: frame 1 propagating, frame 2
		// serializing, frames 3 and 4 buffered.
		for i := 0; i < 4; i++ {
			send(nw.Hosts[3], 1, 1500, false)
		}
		s.At(1300, nw.Hosts[3].NIC.Fail)
		// A down switch and an unroutable destination.
		nw.TorSwitch(2).Fail()
		send(nw.Hosts[4], 1, 1500, false)
		send(nw.Hosts[6], 99, 1500, false)
		// A down host: arrivals, sends, paced sends.
		nw.Hosts[7].Fail()
		send(nw.Hosts[6], 7, 1500, false)
		send(nw.Hosts[7], 1, 1500, false)
		p := &Packet{Src: 7, Dst: 1, Size: 1500}
		if arena {
			p = s.AllocPacket()
		}
		sent++
		nw.Hosts[7].SendPaced(100, p)
		// Voids: absorbed by the first switch, or tolerated by a host.
		send(nw.Hosts[0], -1, 84, true)
		stray := &Packet{Void: true, Size: 84}
		if arena {
			stray = s.AllocPacket()
			stray.Void, stray.Size = true, 84
		}
		nw.Hosts[5].Receive(stray)
		s.Run(1e9)

		lost := nw.TotalFaultDrops() + nw.TotalVoidsDropped()
		for _, q := range nw.Queues {
			lost += q.Stats.DroppedPkts
		}
		// Every loss but the unroutable one is metered.
		if lost != 14 || sent != delivered+lost+1 {
			t.Errorf("arena=%v: sent %d, delivered %d, metered losses %d (want 14 + 1 unroutable)", arena, sent, delivered, lost)
		}
		if in := s.RuntimeCounters().PktInUse; in != 0 {
			t.Errorf("arena=%v: %d packets in use after drain, want 0", arena, in)
		}
	}
}

// TestVoidBecomesArenaPacketAtWireTime: a laid-out batch keeps each
// void as a size, not a packet. On one paced host whose first batch
// holds voids, the arena counts only the data frames until the first
// void's wire time, one packet more from it, and nothing once the run
// drains (the ToR frees every void, the receiver every data frame).
func TestVoidBecomesArenaPacketAtWireTime(t *testing.T) {
	nw := buildNet(t)
	s := nw.Sim
	for _, h := range nw.Hosts {
		h.FreeOnDeliver = true
	}
	h := nw.Hosts[0]
	h.EnablePacing(pacer.NewBatcher(10 * gbps))
	h.AddVM(pacer.NewVM(100, pacer.Guarantee{BandwidthBps: 1 * gbps, BurstBytes: 1500, BurstRateBps: 10 * gbps, MTUBytes: 1500}, 0))
	const data = 8
	for i := 0; i < data; i++ {
		p := s.AllocPacket()
		p.ID, p.Src, p.Dst, p.SrcVM, p.DstVM, p.Size = uint64(i), 0, 1, 100, 200, 1500
		h.SendPaced(100, p)
	}
	inUse := func(when string, want int64) {
		t.Helper()
		if in := s.RuntimeCounters().PktInUse; in != want {
			t.Errorf("%s: %d arena packets in use, want %d", when, in, want)
		}
	}
	s.Run(0) // the batch loop lays out the first batch
	firstVoid, voids := int64(-1), 0
	for _, f := range h.wire[h.wireHead:] {
		if f.p == nil {
			if firstVoid < 0 {
				firstVoid = f.t
			}
			voids++
		}
	}
	if voids == 0 {
		t.Fatal("the laid-out batch holds no void")
	}
	inUse("batch laid out", data)
	s.Run(firstVoid - 1)
	inUse("just before the first void's wire time", data)
	s.Run(firstVoid)
	inUse("at the first void's wire time", data+1)
	s.Run(1e9)
	inUse("after the run", 0)
	if got := nw.TotalVoidsDropped(); got < int64(voids) {
		t.Errorf("%d voids dropped, want at least the first batch's %d", got, voids)
	}
}
