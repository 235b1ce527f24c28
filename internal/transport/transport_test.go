package transport

import (
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pacer"
	"repro/internal/topology"
)

const gbps = 1e9 / 8

func testNet(t *testing.T, bufBytes float64) *netsim.Network {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           1,
		RacksPerPod:    2,
		ServersPerRack: 3,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    bufBytes,
		NICBufferBytes: 312e3,
		RackOversub:    1,
		PodOversub:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
}

func TestSingleMessageDelivery(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{})
	f.AddEndpoint(200, 1, Options{})
	var completed *Message
	src.SendMessage(200, 100_000, func(m *Message) { completed = m })
	nw.Sim.Run(5e9)
	if completed == nil {
		t.Fatal("message never completed")
	}
	if completed.Latency() <= 0 {
		t.Errorf("latency = %d", completed.Latency())
	}
	if completed.RTOs != 0 {
		t.Errorf("clean transfer suffered %d RTOs", completed.RTOs)
	}
	dst, _ := f.Endpoint(200)
	if got := dst.BytesReceived(100); got != 100_000 {
		t.Errorf("receiver got %d bytes, want 100000", got)
	}
}

func TestMessageLatencyScalesWithSize(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{})
	f.AddEndpoint(200, 1, Options{})
	var small, large *Message
	src.SendMessage(200, 10_000, func(m *Message) { small = m })
	nw.Sim.Run(5e9)
	src.SendMessage(200, 10_000_000, func(m *Message) { large = m })
	nw.Sim.Run(60e9)
	if small == nil || large == nil {
		t.Fatal("messages incomplete")
	}
	if large.Latency() < 10*small.Latency() {
		t.Errorf("10MB latency %d not >> 10KB latency %d", large.Latency(), small.Latency())
	}
	// 10 MB at 10 Gbps is at least 8 ms.
	if large.Latency() < 8_000_000 {
		t.Errorf("10MB finished impossibly fast: %d ns", large.Latency())
	}
}

func TestBulkThroughputNearLineRate(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{})
	f.AddEndpoint(200, 1, Options{})
	var done *Message
	src.SendMessage(200, 50_000_000, func(m *Message) { done = m })
	nw.Sim.Run(120e9)
	if done == nil {
		t.Fatal("bulk transfer incomplete")
	}
	gput := float64(done.Size) / (float64(done.Latency()) / 1e9) // bytes/sec
	if gput < 0.7*10*gbps {
		t.Errorf("goodput %.3g B/s < 70%% of line rate", gput)
	}
}

func TestCongestionLossRecovery(t *testing.T) {
	// Two senders share one 10 Gbps down-port with small buffers:
	// drops must occur, and both transfers must still complete.
	nw := testNet(t, 30e3)
	f := NewFabric(nw)
	s1 := f.AddEndpoint(100, 0, Options{MinRTONs: 10_000_000})
	s2 := f.AddEndpoint(101, 2, Options{MinRTONs: 10_000_000})
	f.AddEndpoint(200, 1, Options{})
	var d1, d2 *Message
	s1.SendMessage(200, 5_000_000, func(m *Message) { d1 = m })
	s2.SendMessage(200, 5_000_000, func(m *Message) { d2 = m })
	nw.Sim.Run(300e9)
	if d1 == nil || d2 == nil {
		t.Fatalf("transfers incomplete: %v %v", d1 != nil, d2 != nil)
	}
	if nw.TotalDrops() == 0 {
		t.Error("expected drops with 30 KB buffers and 2:1 incast")
	}
	c1 := s1.Conn(200)
	c2 := s2.Conn(200)
	if c1.FastRetx+c2.FastRetx+c1.RTOCount+c2.RTOCount == 0 {
		t.Error("no loss recovery events despite drops")
	}
}

func TestIncastRTOs(t *testing.T) {
	// Classic incast: many senders burst simultaneously to one
	// receiver through a shallow buffer; some flows hit timeouts
	// (paper Figure 13's mechanism).
	nw := testNet(t, 30e3)
	f := NewFabric(nw)
	f.AddEndpoint(200, 1, Options{})
	senders := []*Endpoint{
		f.AddEndpoint(100, 0, Options{MinRTONs: 10_000_000}),
		f.AddEndpoint(101, 2, Options{MinRTONs: 10_000_000}),
		f.AddEndpoint(102, 3, Options{MinRTONs: 10_000_000}),
		f.AddEndpoint(103, 4, Options{MinRTONs: 10_000_000}),
		f.AddEndpoint(104, 5, Options{MinRTONs: 10_000_000}),
	}
	completed := 0
	rtos := 0
	for _, s := range senders {
		s.SendMessage(200, 300_000, func(m *Message) {
			completed++
			rtos += m.RTOs
		})
	}
	nw.Sim.Run(300e9)
	if completed != len(senders) {
		t.Fatalf("completed %d of %d", completed, len(senders))
	}
	if rtos == 0 {
		t.Error("expected at least one message-level RTO under incast")
	}
}

func TestDCTCPKeepsQueuesShorter(t *testing.T) {
	// DCTCP with ECN marking should complete a congested transfer with
	// far fewer drops than Reno through the same buffers.
	run := func(variant Variant, ecnK int) (drops int64, ok bool) {
		tree, err := topology.New(topology.Config{
			Pods: 1, RacksPerPod: 2, ServersPerRack: 3, SlotsPerServer: 4,
			LinkBps: 10 * gbps, BufferBytes: 60e3, NICBufferBytes: 312e3,
			RackOversub: 1, PodOversub: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200, ECNThresholdBytes: ecnK})
		f := NewFabric(nw)
		opt := Options{Variant: variant, MinRTONs: 10_000_000}
		s1 := f.AddEndpoint(100, 0, opt)
		s2 := f.AddEndpoint(101, 2, opt)
		f.AddEndpoint(200, 1, Options{})
		done := 0
		s1.SendMessage(200, 8_000_000, func(m *Message) { done++ })
		s2.SendMessage(200, 8_000_000, func(m *Message) { done++ })
		nw.Sim.Run(300e9)
		return nw.TotalDrops(), done == 2
	}
	renoDrops, renoOK := run(Reno, 0)
	dctcpDrops, dctcpOK := run(DCTCP, 20e3)
	if !renoOK || !dctcpOK {
		t.Fatalf("transfers incomplete: reno=%v dctcp=%v", renoOK, dctcpOK)
	}
	if dctcpDrops >= renoDrops {
		t.Errorf("DCTCP drops (%d) should be below Reno's (%d)", dctcpDrops, renoDrops)
	}
}

func TestPacedTransportConformsAndAvoidsLoss(t *testing.T) {
	// Silo mode: both senders paced to 2 Gbps with small bursts; the
	// shared 10 Gbps port never drops even with shallow buffers.
	nw := testNet(t, 60e3)
	f := NewFabric(nw)
	for i, hid := range []int{0, 2} {
		h := nw.Hosts[hid]
		h.EnablePacing(pacer.NewBatcher(10 * gbps))
		vm := pacer.NewVM(100+i, pacer.Guarantee{
			BandwidthBps: 2 * gbps, BurstBytes: 3000, BurstRateBps: 10 * gbps, MTUBytes: 1518,
		}, 0)
		h.AddVM(vm)
	}
	s1 := f.AddEndpoint(100, 0, Options{Paced: true})
	s2 := f.AddEndpoint(101, 2, Options{Paced: true})
	f.AddEndpoint(200, 1, Options{})
	done := 0
	s1.SendMessage(200, 2_000_000, func(m *Message) { done++ })
	s2.SendMessage(200, 2_000_000, func(m *Message) { done++ })
	nw.Sim.Run(300e9)
	if done != 2 {
		t.Fatalf("completed %d of 2", done)
	}
	if drops := nw.TotalDrops(); drops != 0 {
		t.Errorf("paced compliant traffic dropped %d packets", drops)
	}
	// Goodput per flow ≈ its guarantee (2 Gbps), not a fair half of
	// 10 Gbps.
	c1 := s1.Conn(200)
	elapsed := float64(nw.Sim.Now())
	_ = elapsed
	if c1.RTOCount != 0 {
		t.Errorf("paced flow suffered %d RTOs", c1.RTOCount)
	}
}

func TestOnMessageReceiverCallback(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{})
	dst := f.AddEndpoint(200, 1, Options{})
	events := 0
	dst.OnMessage = func(srcVM int, msgID uint64, size int) {
		if srcVM != 100 {
			t.Errorf("OnMessage srcVM = %d", srcVM)
		}
		if size != 50_000 {
			t.Errorf("OnMessage size = %d, want 50000", size)
		}
		events++
	}
	m := src.SendMessage(200, 50_000, nil)
	nw.Sim.Run(5e9)
	if events != 1 {
		t.Errorf("OnMessage fired %d times, want exactly 1", events)
	}
	if m.ID == 0 {
		t.Error("message ID not assigned")
	}
}

func TestOnMessagePerMessage(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{})
	dst := f.AddEndpoint(200, 1, Options{})
	var sizes []int
	dst.OnMessage = func(srcVM int, msgID uint64, size int) { sizes = append(sizes, size) }
	for i := 1; i <= 4; i++ {
		src.SendMessage(200, i*10_000, nil)
	}
	nw.Sim.Run(10e9)
	if len(sizes) != 4 {
		t.Fatalf("OnMessage fired %d times, want 4", len(sizes))
	}
	for i, s := range sizes {
		if s != (i+1)*10_000 {
			t.Errorf("message %d size = %d", i, s)
		}
	}
}

func TestVariantString(t *testing.T) {
	if Reno.String() != "reno" || DCTCP.String() != "dctcp" {
		t.Error("bad variant strings")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should render")
	}
}

func TestMessagesCompleteInOrderPerConn(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	src := f.AddEndpoint(100, 0, Options{})
	f.AddEndpoint(200, 1, Options{})
	var order []uint64
	for i := 0; i < 5; i++ {
		src.SendMessage(200, 20_000, func(m *Message) { order = append(order, m.ID) })
	}
	nw.Sim.Run(10e9)
	if len(order) != 5 {
		t.Fatalf("completed %d of 5", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Errorf("out-of-order completion: %v", order)
		}
	}
}

// sortedOOO returns buffered out-of-order ranges in seq order.
func (r *rcvState) sortedOOO() []int64 {
	keys := make([]int64, 0, len(r.ooo))
	for k := range r.ooo {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func TestRcvStateOOOHelpers(t *testing.T) {
	rs := &rcvState{ooo: map[int64]int64{30: 40, 10: 20}}
	keys := rs.sortedOOO()
	if len(keys) != 2 || keys[0] != 10 || keys[1] != 30 {
		t.Errorf("sortedOOO = %v", keys)
	}
}
