package netsim_test

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/pacer"
	"repro/internal/topology"
)

// planeSet is which planes a run attaches, in the order scenarios do.
type planeSet struct{ audit, flight, intro, window bool }

// planeOut is what each attached plane recorded.
type planeOut struct {
	flight []obs.FlightEvent
	audit  [3]int64 // packets, max delay, violations
	hist   [64]int64
	intro  introspect.Snapshot
	window []int64 // worst occupancy per port
}

func planeNet(t *testing.T) *netsim.Network {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           2,
		RacksPerPod:    2,
		ServersPerRack: 2,
		SlotsPerServer: 4,
		LinkBps:        1.25e9,
		BufferBytes:    312e3,
		NICBufferBytes: 150e3,
		RackOversub:    1,
		PodOversub:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
}

// attach subscribes the chosen planes; the audited tenant is every
// packet bound for VM 11, against a 2 µs bound so congestion violates.
func attach(nw *netsim.Network, ps planeSet) (*obs.GuaranteeAuditor, *obs.FlightRecorder, *introspect.Introspector, *netsim.PortWindowTracker) {
	var (
		audit *obs.GuaranteeAuditor
		rec   *obs.FlightRecorder
		in    *introspect.Introspector
		win   *netsim.PortWindowTracker
	)
	if ps.audit {
		audit = obs.NewGuaranteeAuditor(nil)
		audit.Admit(1, 1.25e8, 3000, 2e-6)
		nw.AttachDelayAudit(audit, func(vm int) (int, bool) { return 1, vm == 11 })
	}
	if ps.flight {
		rec = obs.NewFlightRecorder(0, 1)
		netsim.AttachFlightRecorder(nw, rec)
	}
	if ps.intro {
		in = introspect.Attach(nw, nil, introspect.Config{})
	}
	if ps.window {
		win = netsim.AttachPortWindowTracker(nw)
	}
	return audit, rec, in, win
}

// runPlanes drives a paced VM and two unpaced line-rate senders into
// host 1, so every event kind fires and host 1's down-port queues.
func runPlanes(t *testing.T, ps planeSet) planeOut {
	nw := planeNet(t)
	audit, rec, in, win := attach(nw, ps)
	h0 := nw.Hosts[0]
	h0.EnablePacing(pacer.NewBatcher(nw.Tree.Config().LinkBps))
	h0.AddVM(pacer.NewVM(100, pacer.Guarantee{BandwidthBps: 1.25e8, BurstBytes: 3000, BurstRateBps: 1.25e9, MTUBytes: 1518}, 0))
	adm := introspect.Envelope{RateBps: 1.25e8, BurstBytes: 3000}
	if in != nil {
		in.TrackVM(0, 100, 1, adm) // paced: the pacer's commit tap
		in.TrackVM(2, 102, 1, adm) // unpaced: NIC arrivals
	}
	id := uint64(0)
	for i := 0; i < 50; i++ {
		at := int64(i) * 1200
		nw.Sim.At(at, func() {
			id++
			h0.SendPaced(100, &netsim.Packet{ID: id, Src: 0, Dst: 1, SrcVM: 100, DstVM: 11, Size: 1500})
			for _, src := range []int{2, 4} {
				id++
				nw.Hosts[src].Send(&netsim.Packet{ID: id, Src: src, Dst: 1, SrcVM: 100 + src, DstVM: 11, Size: 1500})
			}
		})
	}
	nw.Sim.Run(1e9)

	var out planeOut
	if rec != nil {
		out.flight = rec.Events()
	}
	if audit != nil {
		ta, _ := audit.Tenant(1)
		out.audit = [3]int64{ta.Packets.Value(), ta.MaxDelayNs.Value(), ta.Violations.Value()}
		out.hist = ta.DelayUs.Buckets()
	}
	if in != nil {
		out.intro = in.Snapshot()
	}
	if win != nil {
		for pid := range nw.Queues {
			out.window = append(out.window, win.WindowMaxBytes(pid))
		}
	}
	return out
}

// The planes compose on the spine: attached together, each records
// exactly what it records attached alone.
func TestPlanesComposeOnSpine(t *testing.T) {
	all := runPlanes(t, planeSet{true, true, true, true})
	if len(all.flight) == 0 || all.audit[0] == 0 || all.audit[2] == 0 || len(all.intro.Envelopes) != 2 || all.window == nil {
		t.Fatalf("a plane saw nothing: flight=%d audit=%v envelopes=%d", len(all.flight), all.audit, len(all.intro.Envelopes))
	}
	for _, c := range []struct {
		name string
		ps   planeSet
		same func(a, b planeOut) bool
	}{
		{"audit", planeSet{audit: true}, func(a, b planeOut) bool { return a.audit == b.audit && a.hist == b.hist }},
		{"flight", planeSet{flight: true}, func(a, b planeOut) bool { return reflect.DeepEqual(a.flight, b.flight) }},
		{"introspect", planeSet{intro: true}, func(a, b planeOut) bool { return reflect.DeepEqual(a.intro, b.intro) }},
		{"port window", planeSet{window: true}, func(a, b planeOut) bool { return reflect.DeepEqual(a.window, b.window) }},
	} {
		if alone := runPlanes(t, c.ps); !c.same(alone, all) {
			t.Errorf("%s alone records differently than beside the other planes", c.name)
		}
	}
}

// One packet's enqueue → transmit → deliver allocates nothing with every
// plane subscribed.
func TestSpineAllocsNothing(t *testing.T) {
	nw := planeNet(t)
	_, _, in, _ := attach(nw, planeSet{true, true, true, true})
	in.TrackVM(0, 10, 1, introspect.Envelope{RateBps: 1.25e8, BurstBytes: 3000})
	nw.Hosts[7].FreeOnDeliver = true
	id := uint64(0)
	send := func() {
		p := nw.Sim.AllocPacket()
		id++
		p.ID, p.Src, p.Dst, p.SrcVM, p.DstVM, p.Size = id, 0, 7, 10, 11, 1500
		nw.Hosts[0].Send(p)
		nw.Sim.Run(nw.Sim.Now() + 1e6)
	}
	send() // warm: event and packet chunks
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Errorf("%.2f allocations per packet with every plane subscribed, want 0", avg)
	}
}
