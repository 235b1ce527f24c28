package faults

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

const gbps = 1e9 / 8

func testNet(t *testing.T) *netsim.Network {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           2,
		RacksPerPod:    2,
		ServersPerRack: 3,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 312e3,
		RackOversub:    1,
		PodOversub:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
}

func pkt(src, dst, size int) *netsim.Packet {
	return &netsim.Packet{Src: src, Dst: dst, Size: int32(size)}
}

// A failed link loses queued, in-flight, and subsequent traffic to the
// fault counters — never the overflow counters — and delivery resumes
// after restore.
func TestLinkFailDropsAndRestores(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	var delivered int
	nw.Hosts[1].Deliver = func(p *netsim.Packet) { delivered++ }

	pid := nw.Tree.ServerUpPortID(0)
	q := nw.Queues[pid]

	// Queue a burst, fail mid-drain, restore later, send again.
	nw.Sim.At(0, func() {
		for i := 0; i < 10; i++ {
			nw.Hosts[0].Send(pkt(0, 1, 1500))
		}
	})
	nw.Sim.At(2000, func() { in.FailLink(pid) }) // ~1.6 pkts serialized at 10G
	nw.Sim.At(10_000, func() { nw.Hosts[0].Send(pkt(0, 1, 1500)) })
	nw.Sim.At(20_000, func() { in.RestoreLink(pid) })
	nw.Sim.At(30_000, func() { nw.Hosts[0].Send(pkt(0, 1, 1500)) })
	nw.Sim.Run(1e9)

	if q.Stats.DroppedPkts != 0 {
		t.Fatalf("fault loss leaked into overflow counter: %d", q.Stats.DroppedPkts)
	}
	if q.Stats.FaultDroppedPkts == 0 {
		t.Fatal("no fault drops recorded")
	}
	if q.Occupied() != 0 {
		t.Fatalf("occupied bytes leaked: %d", q.Occupied())
	}
	if delivered == 0 {
		t.Fatal("nothing delivered after restore")
	}
	// Conservation: everything enqueued was sent, fault-dropped, or
	// overflow-dropped.
	if q.Stats.EnqueuedPkts != q.Stats.SentPkts+q.Stats.FaultDroppedPkts+q.Stats.DroppedPkts {
		t.Fatalf("packet conservation broken: enq=%d sent=%d fault=%d drop=%d",
			q.Stats.EnqueuedPkts, q.Stats.SentPkts, q.Stats.FaultDroppedPkts, q.Stats.DroppedPkts)
	}
	if len(in.Events()) != 2 {
		t.Fatalf("want 2 events, got %v", in.Events())
	}
}

// A packet mid-propagation when the link dies is lost, not delivered.
func TestInFlightLossOnFail(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	var delivered int
	nw.Hosts[1].Deliver = func(p *netsim.Packet) { delivered++ }

	pid := nw.Tree.RackDownPortID(1) // last hop toward host 1
	// 1500B at 10 Gbps serializes in 1200ns, then 200ns propagation.
	// Fail the last-hop port while the frame is on the wire.
	nw.Sim.At(0, func() { nw.Hosts[0].Send(pkt(0, 1, 1500)) })
	// NIC: 1200+200; ToR down-port starts serializing ~1400, done
	// ~2600, delivers ~2800. Fail at 2700: mid-propagation.
	nw.Sim.At(2700, func() { in.FailLink(pid) })
	nw.Sim.Run(1e7)

	if delivered != 0 {
		t.Fatal("packet delivered through a dead link")
	}
	if nw.Queues[pid].Stats.FaultDroppedPkts != 1 {
		t.Fatalf("want 1 in-flight fault drop, got %d", nw.Queues[pid].Stats.FaultDroppedPkts)
	}
}

// Failing a switch takes down transit and all attached ports; the
// event's Servers list names the rack.
func TestSwitchFail(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	var delivered int
	nw.Hosts[4].Deliver = func(p *netsim.Packet) { delivered++ }

	if err := in.FailSwitch("tor0"); err != nil {
		t.Fatal(err)
	}
	// host 0 (rack 0) -> host 4 (rack 1): must die at tor0.
	nw.Sim.At(1000, func() { nw.Hosts[0].Send(pkt(0, 4, 1500)) })
	nw.Sim.Run(1e7)

	if delivered != 0 {
		t.Fatal("packet crossed a dead ToR")
	}
	if nw.TotalFaultDrops() == 0 {
		t.Fatal("switch failure metered nothing")
	}
	ev := in.Events()[0]
	if ev.Kind != KindSwitchDown {
		t.Fatalf("want switch-down, got %v", ev.Kind)
	}
	want := []int{0, 1, 2}
	if len(ev.Servers) != len(want) {
		t.Fatalf("affected servers = %v, want %v", ev.Servers, want)
	}
	for i, s := range want {
		if ev.Servers[i] != s {
			t.Fatalf("affected servers = %v, want %v", ev.Servers, want)
		}
	}
	// Restore and verify traffic flows again.
	nw2 := nw
	if err := in.RestoreSwitch("tor0"); err != nil {
		t.Fatal(err)
	}
	nw2.Sim.At(nw2.Sim.Now()+1000, func() { nw2.Hosts[0].Send(pkt(0, 4, 1500)) })
	nw2.Sim.Run(nw2.Sim.Now() + 1e7)
	if delivered != 1 {
		t.Fatalf("want 1 delivery after restore, got %d", delivered)
	}
}

// A failed host drops ingress and egress, both metered.
func TestHostFail(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	var delivered int
	nw.Hosts[2].Deliver = func(p *netsim.Packet) { delivered++ }

	if err := in.FailHost(2); err != nil {
		t.Fatal(err)
	}
	nw.Sim.At(1000, func() {
		nw.Hosts[0].Send(pkt(0, 2, 1500)) // ingress to dead host
		nw.Hosts[2].Send(pkt(2, 0, 1500)) // egress from dead host
	})
	nw.Sim.Run(1e7)
	if delivered != 0 {
		t.Fatal("dead host delivered")
	}
	if nw.Hosts[2].FaultDropped == 0 {
		t.Fatal("host fault drops not metered")
	}
	if err := in.RestoreHost(2); err != nil {
		t.Fatal(err)
	}
	nw.Sim.At(nw.Sim.Now()+1000, func() { nw.Hosts[0].Send(pkt(0, 2, 1500)) })
	nw.Sim.Run(nw.Sim.Now() + 1e7)
	if delivered != 1 {
		t.Fatalf("want 1 delivery after restore, got %d", delivered)
	}
}

// Gray failure loses arrivals while the port keeps draining, and ends
// on schedule.
func TestGrayLink(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	var delivered int
	nw.Hosts[1].Deliver = func(p *netsim.Packet) { delivered++ }

	pid := nw.Tree.ServerUpPortID(0)
	nw.Sim.At(0, func() { in.GrayLink(pid, 50_000) })
	nw.Sim.At(10_000, func() { nw.Hosts[0].Send(pkt(0, 1, 1500)) }) // lost
	nw.Sim.At(60_000, func() { nw.Hosts[0].Send(pkt(0, 1, 1500)) }) // flows
	nw.Sim.Run(1e9)

	if delivered != 1 {
		t.Fatalf("want exactly the post-gray packet, got %d deliveries", delivered)
	}
	if nw.Queues[pid].Stats.FaultDroppedPkts != 1 {
		t.Fatalf("want 1 gray drop, got %d", nw.Queues[pid].Stats.FaultDroppedPkts)
	}
	evs := in.Events()
	if len(evs) != 2 || evs[0].Kind != KindLinkGrayStart || evs[1].Kind != KindLinkGrayEnd {
		t.Fatalf("unexpected event log: %v", evs)
	}
}

// Flap generates the full down/up sequence.
func TestFlapLink(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	pid := nw.Tree.ServerUpPortID(0)
	nw.Sim.At(0, func() { in.FlapLink(pid, 3, 1000, 2000) })
	nw.Sim.Run(1e9)
	evs := in.Events()
	if len(evs) != 6 {
		t.Fatalf("want 6 flap events, got %d: %v", len(evs), evs)
	}
	for i, ev := range evs {
		want := KindLinkDown
		if i%2 == 1 {
			want = KindLinkUp
		}
		if ev.Kind != want {
			t.Fatalf("event %d = %v, want %v", i, ev.Kind, want)
		}
	}
	if nw.Queues[pid].Down() {
		t.Fatal("port left down after flap sequence")
	}
}

// Windows pairs down and up events per target into outage windows
// labeled by their opening event; a window never restored stays open.
func TestWindows(t *testing.T) {
	evs := []Event{
		{TimeNs: 10e6, Kind: KindSwitchDown, Target: "switch tor0", Ports: []int{1, 2}, Servers: []int{0, 1}},
		{TimeNs: 12e6, Kind: KindLinkDown, Target: "link 5", Ports: []int{5}},
		{TimeNs: 15e6, Kind: KindSwitchUp, Target: "switch tor0"},
	}
	ws := Windows(evs, 2e6)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	tor := ws[0]
	if tor.Target != "switch tor0" || tor.StartNs != 10e6 || tor.EndNs != 15e6 || len(tor.Ports) != 2 || len(tor.Servers) != 2 {
		t.Fatalf("tor window = %+v", tor)
	}
	if want := "switch-down switch tor0 @10000000ns"; tor.Label != want {
		t.Fatalf("label %q, want %q", tor.Label, want)
	}
	if end := tor.AttributedEndNs(); end != 17e6 {
		t.Fatalf("window attributes until %dns, want restore+grace 17ms", end)
	}
	link := ws[1]
	if link.EndNs != -1 {
		t.Fatalf("never-restored link window closed: %+v", link)
	}
	if link.AttributedEndNs() < 101e6 {
		t.Fatal("open window must cover any later span")
	}
}

// LabelIn answers outage-window queries, honoring the grace extension.
func TestLabelIn(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	pid := nw.Tree.ServerUpPortID(0)
	nw.Sim.At(5000, func() { in.FailLink(pid) })
	nw.Sim.At(8000, func() { in.RestoreLink(pid) })
	nw.Sim.Run(1e6)
	ws := Windows(in.Events(), 1000)

	cases := []struct {
		since, until int64
		want         bool
	}{
		{0, 5000, false},     // before the outage
		{5000, 6000, true},   // inside
		{7000, 12000, true},  // spans the close
		{8500, 9000, true},   // within grace
		{9001, 10000, false}, // past grace
	}
	for _, c := range cases {
		label, ok := LabelIn(ws, c.since, c.until)
		if ok != c.want {
			t.Fatalf("LabelIn(%d,%d) = %v, want %v", c.since, c.until, ok, c.want)
		}
		if ok && label == "" {
			t.Fatal("empty fault label")
		}
	}
}

// LabelIn over the whole run's windows gives every window the label
// that the windows paired so far gave on the window's close:
// overlapping outages, faults at tick times, an outage open at a close
// and one still open at the end.
func TestLabelInAfterRunMatchesLive(t *testing.T) {
	const grace = 1500
	nw := testNet(t)
	in := NewInjector(nw)
	a, b := nw.Tree.ServerUpPortID(0), nw.Tree.ServerUpPortID(1)
	nw.Sim.At(2500, func() { in.FailLink(a) })
	nw.Sim.At(3000, func() { in.FailLink(b) })
	nw.Sim.At(4000, func() { in.RestoreLink(a) })
	nw.Sim.At(7200, func() { in.RestoreLink(b) })
	nw.Sim.At(9000, func() { in.FailLink(a) })
	type answer struct {
		label string
		ok    bool
	}
	var live []answer
	var start int64
	nw.Sim.Every(1000, 12000, func(now int64) {
		label, ok := LabelIn(Windows(in.Events(), grace), start, now)
		live = append(live, answer{label, ok})
		start = now
	})
	nw.Sim.Run(12000)

	ws := Windows(in.Events(), grace)
	var matched int
	for i, want := range live {
		since, until := int64(i)*1000, int64(i+1)*1000
		if label, ok := LabelIn(ws, since, until); label != want.label || ok != want.ok {
			t.Errorf("LabelIn(%d,%d) after the run = %q, %v; live %q, %v", since, until, label, ok, want.label, want.ok)
		}
		if want.ok {
			matched++
		}
	}
	if len(live) != 12 || matched == 0 || matched == len(live) {
		t.Fatalf("%d windows, %d in a fault: the schedule exercises nothing", len(live), matched)
	}
}

// Apply validates targets before scheduling anything.
func TestApplyValidates(t *testing.T) {
	nw := testNet(t)
	in := NewInjector(nw)
	bad := []string{
		"t=1ms link 99999 down",
		"t=1ms host 500 down",
		"t=1ms switch tor9 down",
		"t=1ms switch spine0 down",
		"t=1ms switch tor0 gray 1ms", // gray is link-only
	}
	for _, s := range bad {
		sched, err := ParseSchedule(s)
		if err != nil {
			continue // rejected at parse, also fine for spine0? no: parse accepts, Apply rejects
		}
		if err := in.Apply(sched); err == nil {
			t.Fatalf("Apply(%q) accepted an invalid schedule", s)
		}
	}
	good, err := ParseSchedule("t=1ms switch tor0 down, t=2ms up, t=3ms link 0 flap 2x10us/10us, t=5ms host 1 down")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(good); err != nil {
		t.Fatal(err)
	}
	nw.Sim.Run(1e9)
	if len(in.Events()) != 2+4+1 {
		t.Fatalf("want 7 events, got %d: %v", len(in.Events()), in.Events())
	}
}
