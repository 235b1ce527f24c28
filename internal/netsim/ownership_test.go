package netsim

import "testing"

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
			p.Src, p.Dst, p.Size, p.Void = h.ID, dst, size, void
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
