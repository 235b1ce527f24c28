package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/units"
)

// TestFinishClosesPartialWindow: Finish closes the window from the last
// tick to the end of the run, so the window events count every
// violation the auditor counted. A run 0.5 ms past a whole number of
// windows leaves half a window unticked; a run cancelled at 21.15 ms
// stops between ticks while the resync storm's violations land; the
// drill's 60 ms leaves nothing to close.
func TestFinishClosesPartialWindow(t *testing.T) {
	for _, c := range []struct {
		name      string
		horizonNs int64
		cancelAt  int64 // 0: run to the end
		partial   bool  // the last window is partial and holds violations
	}{
		{"window does not divide the run", 60_500_000, 0, false},
		{"cancelled run", 60e6, 21_150_000, true},
		{"window divides the run", 60e6, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := drill(t)
			sc.HorizonNs = c.horizonNs
			run, err := Build(sc, Env{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelAt > 0 {
				run.Net.Sim.At(c.cancelAt, cancel)
			}
			run.Execute(ctx)
			run.Finish()

			now := run.Net.Sim.Now()
			if c.cancelAt > 0 && (now >= sc.HorizonNs || now%obs.WindowNs == 0) {
				t.Fatalf("the cancelled run stopped at %dns, want between two ticks before %dns", now, sc.HorizonNs)
			}
			if run.windowEnd != now {
				t.Errorf("the last window ends at %dns, want the run's end %dns", run.windowEnd, now)
			}
			counted := map[int]int64{}
			partial := false
			for _, ev := range run.Violations {
				if ev.Source != obs.SourceWindow {
					continue
				}
				counted[ev.Tenant] += ev.Count
				if ev.WindowEndNs == now && ev.WindowStartNs == now/obs.WindowNs*obs.WindowNs && now%obs.WindowNs != 0 {
					partial = true
				}
			}
			if partial != c.partial {
				t.Errorf("a partial last window with violations: %v, want %v", partial, c.partial)
			}
			var total int64
			for _, ta := range run.Audit.Tenants() {
				total += ta.Violations
				if counted[ta.ID] != ta.Violations {
					t.Errorf("tenant %d: window events count %d violations, the auditor %d", ta.ID, counted[ta.ID], ta.Violations)
				}
			}
			if total == 0 {
				t.Error("the run violated nothing: the windows were not exercised")
			}
		})
	}
}

// TestInducedViolationEndToEnd runs the window tick against the real
// simulator: two hosts blast a third at twice its line rate, the victim
// tenant's 20 µs bound is exceeded, and every window event names the
// victim and the true culprit port, the congested ToR->server port the
// port-window tracker attributes live; the bystander tenant on host 7
// gets none.
func TestInducedViolationEndToEnd(t *testing.T) {
	g := tenant.Guarantee{BandwidthBps: units.Gbps, BurstBytes: 15e3, DelayBound: 20e-6}
	sc := Scenario{
		Topology: TenGbE(2, 2, 2, 4, 1, 1),
		Scheme:   core.SchemeTCP,
		Tenants: []Tenant{
			{Spec: tenant.Spec{ID: 5, Name: "victim", VMs: 1, Guarantee: g}, Servers: []int{1}, VMBase: 77},
			{Spec: tenant.Spec{ID: 6, Name: "bystander", VMs: 1, Guarantee: g}, Servers: []int{7}, VMBase: 88},
		},
		HorizonNs: 5e6,
		Planes:    Planes{Audit: true, Windows: true},
	}
	run, err := Build(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Hosts 0 and 2 each send at their own line rate to host 1: the
	// shared tor0->srv1 port sees 2x its drain rate and queues grow to
	// hundreds of µs. Host 6 sends a gentle trickle to host 7.
	nw := run.Net
	for i := 0; i < 2000; i++ {
		at := int64(i) * 1200
		for _, hid := range []int{0, 2} {
			nw.Sim.At(at, func() { nw.Hosts[hid].Send(&netsim.Packet{Src: hid, Dst: 1, SrcVM: -1, DstVM: 77, Size: 1500}) })
		}
		if i%20 == 0 {
			nw.Sim.At(at, func() { nw.Hosts[6].Send(&netsim.Packet{Src: 6, Dst: 7, SrcVM: -1, DstVM: 88, Size: 1500}) })
		}
	}
	run.Execute(context.Background())
	run.Finish()

	victim, _ := run.Audit.Tenant(5)
	if victim.Violations == 0 {
		t.Fatal("overload failed to induce d-violations")
	}
	culprit := int32(run.Tree.RackDownPort(1).ID)
	var counted int64
	for _, ev := range run.Violations {
		if ev.Tenant != 5 {
			t.Fatalf("window event for the bystander: %+v", ev)
		}
		if ev.CulpritPort != culprit {
			t.Errorf("window [%d,%d] culprit = port %d (%s), want %d (%s)", ev.WindowStartNs, ev.WindowEndNs,
				ev.CulpritPort, nw.Queues[ev.CulpritPort].Name, culprit, nw.Queues[culprit].Name)
		}
		if ev.CulpritQueueNs <= 20_000 {
			t.Errorf("window [%d,%d] culprit queue %dns should exceed the 20µs bound", ev.WindowStartNs, ev.WindowEndNs, ev.CulpritQueueNs)
		}
		counted += ev.Count
	}
	if counted != victim.Violations {
		t.Errorf("window events count %d violations, the auditor %d", counted, victim.Violations)
	}
}

// TestWindowEventsCarryLoosenedBound loosens a tenant's bound after the
// first window closes, the way failure recovery degrades a tenant
// mid-run: the next window's event carries the bound the auditor judged
// the violating packet against.
func TestWindowEventsCarryLoosenedBound(t *testing.T) {
	sc := drill(t)
	sc.Faults = ""
	run, err := Build(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	id := sc.Tenants[0].Spec.ID
	run.closeWindow(obs.WindowNs)
	run.Audit.SetDelayBound(id, 3e-3)                        // loosened to 3 ms
	run.Audit.ObserveDelivery(id, 1, 2, 2*obs.WindowNs, 5e6) // 5 ms: over the new bound
	run.closeWindow(2 * obs.WindowNs)

	var bounds []int64
	for _, ev := range run.Violations {
		if ev.Source == obs.SourceWindow {
			bounds = append(bounds, ev.BoundNs)
		}
	}
	if len(bounds) != 1 || bounds[0] != 3e6 {
		t.Errorf("window-violation bounds = %v, want [3000000]", bounds)
	}
}
