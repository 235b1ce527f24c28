package slo

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topology"
)

// TestInducedViolationEndToEnd is the acceptance scenario run against
// the real simulator: two hosts blast a third at twice its line rate,
// the victim tenant's admitted delay bound d is exceeded, and the
// burn-rate alert that fires names the right tenant and the true
// culprit port (the congested ToR->server port), attributed live by
// the netsim PortWindowTracker — no flight recorder involved.
func TestInducedViolationEndToEnd(t *testing.T) {
	const gbps = 1e9 / 8
	tree, err := topology.New(topology.Config{
		Pods: 2, RacksPerPod: 2, ServersPerRack: 2, SlotsPerServer: 4,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 150e3,
		RackOversub: 1, PodOversub: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
	tracker := netsim.AttachPortWindowTracker(nw)

	auditor := obs.NewGuaranteeAuditor()
	// Tenant 5 owns the victim VM with a 20µs bound the congestion will
	// blow through; tenant 6 is an innocent bystander on host 7.
	auditor.Admit(5, 20e-6)
	auditor.Admit(6, 20e-6)
	obs.AttachDelayAudit(nw, auditor, func(vmID int) (int, bool) {
		switch vmID {
		case 77:
			return 5, true
		case 88:
			return 6, true
		}
		return 0, false
	})

	rec := NewRecorder(auditor, 200_000)
	const horizon = int64(5e6)
	nw.Sim.Every(200_000, horizon, func(now int64) {
		port, queueNs := tracker.WorstPort()
		rec.Close(now, port, queueNs)
		tracker.Reset()
	})

	// Hosts 0 and 2 each send at their own line rate to host 1: the
	// shared tor0->srv1 port sees 2x its drain rate, queues grow to
	// hundreds of µs. Host 6 sends a gentle trickle to host 7.
	for i := 0; i < 2000; i++ {
		at := int64(i) * 1200
		for _, hid := range []int{0, 2} {
			hid := hid
			nw.Sim.At(at, func() {
				nw.Hosts[hid].Send(&netsim.Packet{Src: hid, Dst: 1, DstVM: 77, Size: 1500})
			})
		}
		if i%20 == 0 {
			nw.Sim.At(at, func() {
				nw.Hosts[6].Send(&netsim.Packet{Src: 6, Dst: 7, DstVM: 88, Size: 1500})
			})
		}
	}
	nw.Sim.Run(horizon)

	var violations int64
	for _, ta := range auditor.Tenants() {
		violations += ta.Violations
	}
	if violations == 0 {
		t.Fatal("overload failed to induce d-violations")
	}

	culpritWant := int32(tree.RackDownPort(1).ID)
	res := rec.Evaluate(nil)
	var fastStart *Event
	for i, ev := range res.Events {
		if ev.Tenant == 6 {
			t.Fatalf("alert for innocent tenant 6: %+v", ev)
		}
		if ev.Kind == EventFastBurnStart && fastStart == nil {
			fastStart = &res.Events[i]
		}
	}
	if fastStart == nil {
		t.Fatal("fast burn alert never fired under sustained violation")
	}
	if fastStart.Tenant != 5 {
		t.Errorf("alert tenant = %d, want 5", fastStart.Tenant)
	}
	if fastStart.CulpritPort != culpritWant {
		t.Errorf("alert culprit = port %d (%s), want %d (%s)",
			fastStart.CulpritPort, nw.Queues[fastStart.CulpritPort].Name,
			culpritWant, nw.Queues[culpritWant].Name)
	}
	if fastStart.CulpritQueueNs <= 20_000 {
		t.Errorf("culprit queue %dns should exceed the 20µs bound", fastStart.CulpritQueueNs)
	}

	reports := res.Reports
	if len(reports) != 2 || reports[0].ID != 5 || reports[1].ID != 6 {
		t.Fatalf("reports = %+v", reports)
	}
	if reports[0].Violated == 0 || reports[0].Conformance >= 1 {
		t.Errorf("tenant 5 report shows no damage: %+v", reports[0])
	}
	if reports[1].Violated != 0 || reports[1].Conformance != 1 {
		t.Errorf("tenant 6 should be pristine: %+v", reports[1])
	}
}
