package transport

import (
	"testing"

	"repro/internal/netsim"
)

// TestRTORecoveryAcrossLinkDeath kills the path in the middle of a
// message — not before it, as in the blackhole test below — by failing
// the source rack's uplink once the transfer is under way, restoring
// it later. Go-back-N must complete the message after the restore,
// with the timeouts charged to it and no data lost or duplicated.
func TestRTORecoveryAcrossLinkDeath(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{MinRTONs: 5_000_000})
	f.AddEndpoint(200, 3, Options{}) // other rack: path crosses tor0's uplink
	var done *Message
	const size = 400_000
	m := src.SendMessage(200, size, func(mm *Message) { done = mm })

	up := nw.Queues[nw.Tree.RackUpPortID(0)]
	// 400 KB at 10 Gbps needs ~320 µs of wire time plus slow-start
	// ramp; fail at 200 µs — squarely mid-message — and restore 30 ms
	// later, past several RTO firings.
	nw.Sim.At(200_000, func() { up.Fail() })
	nw.Sim.At(30_000_000, func() { up.Restore() })
	nw.Sim.Run(300e9)

	if done == nil {
		t.Fatal("message never completed after link restore")
	}
	if done != m {
		t.Fatal("wrong message completed")
	}
	c := src.Conn(200)
	if c.RTOCount == 0 {
		t.Fatal("mid-message link death should have forced at least one RTO")
	}
	if done.RTOs == 0 {
		t.Error("message should carry the RTOs that hit it")
	}
	if up.Stats.FaultDroppedPkts == 0 {
		t.Error("link death dropped nothing — fault not exercised")
	}
	dst, _ := f.Endpoint(200)
	if got := dst.BytesReceived(100); got != size {
		t.Errorf("receiver got %d bytes, want %d", got, size)
	}
	// Completion must postdate the restore: the tail of the message
	// could only cross after the link came back.
	if done.Completed < 30_000_000 {
		t.Errorf("message completed at %d ns, before the link was restored", done.Completed)
	}
}

// TestRTORecoveryAfterBlackhole: a destination that appears only after
// the first transmissions are lost forces timeouts; the transfer must
// still complete, with the timeouts charged to the message.
func TestRTORecoveryAfterBlackhole(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{MinRTONs: 5_000_000})
	var done *Message
	m := src.SendMessage(200, 50_000, func(mm *Message) { done = mm })
	// The destination endpoint does not exist yet: segments are
	// silently dropped at emission.
	nw.Sim.Run(20_000_000) // let a few RTOs fire
	c := src.Conn(200)
	if c.RTOCount == 0 {
		t.Fatal("no RTO against a blackholed destination")
	}
	// The timeout backoff must have grown.
	if c.backoff < 2 {
		t.Errorf("backoff = %d, want exponential growth", c.backoff)
	}
	// Now the destination comes up; go-back-N retransmission delivers.
	f.AddEndpoint(200, 1, Options{})
	nw.Sim.Run(300e9)
	if done == nil {
		t.Fatal("message never completed after destination appeared")
	}
	if done.RTOs == 0 {
		t.Error("message should carry its RTO count")
	}
	if m.Completed == 0 {
		t.Error("message completion not stamped")
	}
	dst, _ := f.Endpoint(200)
	if got := dst.BytesReceived(100); got != 50_000 {
		t.Errorf("receiver got %d bytes", got)
	}
}

// TestBackoffResetsAfterProgress: after recovery, new acks reset the
// exponential backoff — and the timer with it. The timeout that ends
// the blackhole leaves the timer armed a doubled backoff ahead; the
// first advancing ack re-arms it to now + MinRTONs, an earlier
// deadline, and that one must be the one that fires when the path dies
// again.
func TestBackoffResetsAfterProgress(t *testing.T) {
	const minRTO = 5_000_000
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{MinRTONs: minRTO})
	src.SendMessage(200, 20_000, nil)
	nw.Sim.Run(30_000_000)
	c := src.Conn(200)
	if c.backoff < 2 {
		t.Skip("no backoff accrued")
	}
	// Timeouts so far at 5 and 15 ms, backoff 4. Queueing more data
	// restarts the timer, so the next one comes at 30 + 4 × 5 ms, finds
	// the destination up, retransmits, and arms 8 × 5 ms ahead.
	f.AddEndpoint(200, 3, Options{})
	src.SendMessage(200, 2_000_000, nil)
	// Every ack reaching the sender re-arms the timer (onAck ends in
	// trySend), so the last arm is the last delivery to host 0.
	var lastAck int64
	inner := nw.Hosts[0].Deliver
	nw.Hosts[0].Deliver = func(p *netsim.Packet) {
		lastAck = nw.Sim.Now()
		inner(p)
	}
	// Cut the path mid-transfer, after the backoff has been reset.
	up := nw.Queues[nw.Tree.RackUpPortID(0)]
	nw.Sim.At(50_500_000, func() { up.Fail() })
	nw.Sim.Run(51_500_000)
	if lastAck <= 50_000_000 || lastAck >= 51_000_000 {
		t.Fatalf("last ack at %d ns; expected acks to flow from 50 ms until shortly after the cut", lastAck)
	}
	if c.backoff != 1 {
		t.Fatalf("backoff = %d after acked progress, want 1", c.backoff)
	}
	if c.sndUna >= c.sndNxt {
		t.Fatal("nothing in flight after the cut — the timer has nothing to guard")
	}
	before := c.RTOCount
	nw.Sim.Run(lastAck + minRTO - 1)
	if c.RTOCount != before {
		t.Errorf("timeout fired before last arm + MinRTONs (%d ns)", lastAck+minRTO)
	}
	nw.Sim.Run(lastAck + minRTO)
	if c.RTOCount != before+1 {
		t.Errorf("RTOCount = %d at last arm + MinRTONs (%d ns), want %d", c.RTOCount, lastAck+minRTO, before+1)
	}
	nw.Sim.At(80_000_000, func() { up.Restore() })
	nw.Sim.Run(300e9)
	if c.backoff != 1 {
		t.Errorf("backoff = %d after successful delivery, want 1", c.backoff)
	}
	if dst, _ := f.Endpoint(200); dst.BytesReceived(100) != 2_020_000 {
		t.Errorf("receiver got %d bytes, want 2020000", dst.BytesReceived(100))
	}
	if n := nw.Sim.Pending(); n != 0 {
		t.Errorf("%d events pending after drain", n)
	}
}

// TestDupAckFastRetransmit drives a single-segment loss through a
// tiny-buffer queue and verifies fast retransmit (not a timeout)
// repairs it.
func TestDupAckFastRetransmit(t *testing.T) {
	nw := testNet(t, 20e3) // tiny buffers force sporadic drops
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{MinRTONs: 200_000_000})
	f.AddEndpoint(200, 1, Options{})
	done := 0
	src.SendMessage(200, 2_000_000, func(m *Message) { done++ })
	nw.Sim.Run(400e9)
	if done != 1 {
		t.Fatal("transfer incomplete")
	}
	c := src.Conn(200)
	if nw.TotalDrops() > 0 && c.FastRetx == 0 && c.RTOCount == 0 {
		t.Error("drops occurred but no recovery was exercised")
	}
	// With a 200 ms min RTO and fast retransmit available, recovery
	// should predominantly avoid timeouts.
	if c.FastRetx == 0 {
		t.Skip("no drops in this configuration")
	}
}

// TestMaxCwndCapRespected: the window never exceeds the configured
// send-buffer cap.
func TestMaxCwndCapRespected(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{MaxCwndBytes: 64 << 10})
	f.AddEndpoint(200, 1, Options{})
	src.SendMessage(200, 20_000_000, nil)
	worst := 0.0
	var poll func()
	c := src.Conn(200)
	poll = func() {
		if c.cwnd > worst {
			worst = c.cwnd
		}
		if nw.Sim.Now() < 50_000_000 {
			nw.Sim.After(100_000, poll)
		}
	}
	nw.Sim.After(0, poll)
	nw.Sim.Run(100e9)
	if worst > 64<<10 {
		t.Errorf("cwnd reached %v, cap 64KiB", worst)
	}
}

// TestAckClockPacing: acks echo the original send time so RTT samples
// track the path, shrinking RTO toward the floor.
func TestAckClockPacing(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{MinRTONs: 10_000_000})
	f.AddEndpoint(200, 1, Options{})
	src.SendMessage(200, 1_000_000, nil)
	nw.Sim.Run(100e9)
	c := src.Conn(200)
	if c.srtt == 0 {
		t.Fatal("no RTT samples")
	}
	// The path RTT is microseconds; srtt must reflect that, and the
	// RTO must sit at the configured floor.
	if c.srtt > 5_000_000 {
		t.Errorf("srtt = %v ns, implausibly high", c.srtt)
	}
	if c.rto != 10_000_000 {
		t.Errorf("rto = %d, want the 10 ms floor", c.rto)
	}
}

// TestRTOTimerOneNodePerConn: the retransmission timer is re-armed on
// every segment out and every advancing ack; a 10 K-segment transfer
// must still keep one node in the engine's overflow heap, not one per
// arm, and leave nothing queued once the run has drained.
func TestRTOTimerOneNodePerConn(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{})
	f.AddEndpoint(200, 3, Options{})
	done := false
	src.SendMessage(200, 10_000*1460, func(*Message) { done = true })
	nw.Sim.Run(300e9)
	if !done {
		t.Fatal("transfer incomplete")
	}
	c := src.Conn(200)
	if c.SegmentsOut < 10_000 {
		t.Fatalf("only %d segments sent", c.SegmentsOut)
	}
	if hwm := nw.Sim.RuntimeCounters().FarHWM; hwm > 2 {
		t.Errorf("FarHWM = %d over %d segments on one connection, want at most 2", hwm, c.SegmentsOut)
	}
	if n := nw.Sim.Pending(); n != 0 {
		t.Errorf("%d events pending after drain", n)
	}
}

// TestIncastRTOTimerNodes: 32 senders burst at one receiver through a
// shallow buffer and recover through real timeouts. A timeout doubles
// the backoff and the next advancing ack resets it, which re-arms the
// timer to an earlier deadline and leaves the doubled one behind as a
// dead node until its time comes. That is the only way a connection
// holds more than one node, so the heap is bounded by the connections
// plus the timeouts they took, however many segments and acks pass.
func TestIncastRTOTimerNodes(t *testing.T) {
	nw := testNet(t, 30e3)
	f := NewFabric(nw)
	f.AddEndpoint(200, 1, Options{})
	const senders = 32
	completed, rtos := 0, 0
	var segs, timeouts int64
	var conns []*Conn
	for i := 0; i < senders; i++ {
		host := []int{0, 2, 3, 4, 5}[i%5]
		e := f.AddEndpoint(100+i, host, Options{MinRTONs: 10_000_000})
		e.SendMessage(200, 300_000, func(m *Message) {
			completed++
			rtos += m.RTOs
		})
		conns = append(conns, e.Conn(200))
	}
	nw.Sim.Run(300e9)
	if completed != senders {
		t.Fatalf("completed %d of %d", completed, senders)
	}
	if rtos == 0 {
		t.Fatal("no timeouts under incast: the test exercises nothing")
	}
	for _, c := range conns {
		segs += c.SegmentsOut
		timeouts += int64(c.RTOCount)
	}
	hwm := nw.Sim.RuntimeCounters().FarHWM
	t.Logf("%d connections, %d segments, %d timeouts, FarHWM %d", senders, segs, timeouts, hwm)
	if hwm > senders+timeouts {
		t.Errorf("FarHWM = %d, want at most %d connections + %d timeouts", hwm, senders, timeouts)
	}
	if n := nw.Sim.Pending(); n != 0 {
		t.Errorf("%d events pending after drain", n)
	}
}
