package faults

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// xGen streams packets from one host to a fixed destination, one every
// 1400 ns. Offsets 14·h+1 keep the workload tie-free (see trainGen in
// netsim's sim_test.go for the construction).
type xGen struct {
	host      *netsim.Host
	dst       int
	remaining int
	fn        func()
}

func (g *xGen) send() {
	sim := g.host.Sim()
	p := sim.AllocPacket()
	p.Src, p.Dst = g.host.ID, g.dst
	p.Size = 1500
	g.host.Send(p)
	g.remaining--
	if g.remaining > 0 {
		sim.After(1400, g.fn)
	}
}

// runUplinkFault drives pod0 → pod1 traffic through a schedule that
// kills pod0's uplink mid-stream, with frames queued, serializing and
// propagating, and restores it later. Returns the fault-drop count at
// that port, the fabric-wide fault total and the packets delivered.
func runUplinkFault(t *testing.T) (port, total, delivered int64) {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           2,
		RacksPerPod:    2,
		ServersPerRack: 2,
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
	nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
	hostsPerPod := 4
	for h := 0; h < hostsPerPod; h++ {
		g := &xGen{host: nw.Hosts[h], dst: h + hostsPerPod, remaining: 600}
		g.fn = g.send
		g.host.Sim().At(int64(14*h+1), g.fn)
		nw.Hosts[h+hostsPerPod].FreeOnDeliver = true
		nw.Hosts[h+hostsPerPod].OnDeliver = func(*netsim.Packet, int64) { delivered++ }
	}

	in := NewInjector(nw)
	uplink := tree.PodUpPortID(0)
	sched, err := ParseSchedule(fmt.Sprintf("t=200us link %d down, t=500us link %d up", uplink, uplink))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(sched); err != nil {
		t.Fatal(err)
	}
	nw.Run(2_000_000)
	return nw.Queues[uplink].Stats.FaultDroppedPkts, nw.TotalFaultDrops(), delivered
}

// TestUplinkFaultDeterministic is the fault-injection determinism
// gate: a schedule that kills a pod↔core link with frames in flight —
// losing the queued packets at once and the serializing and propagating
// ones at their completion events — must meter the same
// FaultDroppedPkts on every run, and every packet sent is either
// delivered or metered as a fault drop.
func TestUplinkFaultDeterministic(t *testing.T) {
	port, total, delivered := runUplinkFault(t)
	if port != 860 || total != 860 || delivered != 1540 {
		t.Errorf("port=%d total=%d delivered=%d, want port=860 total=860 delivered=1540", port, total, delivered)
	}
	if sent := int64(4 * 600); total+delivered != sent {
		t.Errorf("%d fault drops + %d deliveries != %d packets sent", total, delivered, sent)
	}
	if p2, t2, d2 := runUplinkFault(t); p2 != port || t2 != total || d2 != delivered {
		t.Errorf("second run diverges: port=%d total=%d delivered=%d, first port=%d total=%d delivered=%d",
			p2, t2, d2, port, total, delivered)
	}
}
