package experiments

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestDrillPlanesAndIncidents runs the failure drill with every plane
// on. With the fault, recovery re-deploys the tenants mid-run. Either
// way the run must finish with every plane's result, and its incident
// report must hold violations exactly when a fault was injected.
func TestDrillPlanesAndIncidents(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults bool
	}{{"steady", false}, {"fault", true}} {
		t.Run(c.name, func(t *testing.T) {
			sc := drill(t)
			if !c.faults {
				sc.Faults = ""
			}
			sc.Planes.TraceSampleN = 1
			sc.Planes.Introspect = true
			run, err := Build(sc, Env{})
			if err != nil {
				t.Fatal(err)
			}
			run.Execute(context.Background())
			run.Finish()
			if run.Incidents == nil || run.Snapshot == nil || run.Ports == nil {
				t.Fatalf("a plane left no result: incidents %v, snapshot %v, %d ports", run.Incidents, run.Snapshot, len(run.Ports))
			}
			if run.Incidents.TotalViolations > 0 != c.faults {
				t.Errorf("%d violations correlated, fault injected: %v", run.Incidents.TotalViolations, c.faults)
			}
		})
	}
}

// TestWindowTickAllocatesNothing closes windows on a finished drill run
// with every plane on: naming the culprit port, diffing each tenant's
// violations and resetting the tracker allocate nothing.
func TestWindowTickAllocatesNothing(t *testing.T) {
	sc := drill(t)
	sc.Planes.TraceSampleN = 1
	sc.Planes.Introspect = true
	run, err := Build(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	run.Execute(context.Background())
	run.Finish()
	now := run.Net.Sim.Now()
	if allocs := testing.AllocsPerRun(1000, func() { now++; run.closeWindow(now) }); allocs != 0 {
		t.Fatalf("a window tick allocates %v times, want 0", allocs)
	}
}

// TestIncidentsCorrelatedAtFinish runs the drill as silo-sim -incidents
// does — the window tick and incident correlation:
// the incident report exists only once Finish has correlated the
// finished streams.
func TestIncidentsCorrelatedAtFinish(t *testing.T) {
	sc := drill(t)
	run, err := Build(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	run.Net.Sim.Every(obs.WindowNs, sc.HorizonNs+sc.DrainNs, func(now int64) {
		if run.Incidents != nil {
			t.Fatalf("t=%dns: an incident report exists before Finish", now)
		}
	})
	run.Execute(context.Background())
	run.Finish()
	if run.Incidents == nil || run.Incidents.TotalViolations == 0 {
		t.Fatalf("no violations correlated at Finish: %+v", run.Incidents)
	}
}

// TestCloseZeroAllocs closes windows in a steady state where every
// admitted tenant violates its bound in every window: appending one
// window event per tenant amortizes to zero allocations per tick.
func TestCloseZeroAllocs(t *testing.T) {
	sc := drill(t)
	sc.Faults = ""
	run, err := Build(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	tenants := run.Audit.Tenants()
	now := run.windowEnd
	window := func() {
		now += obs.WindowNs
		for _, ta := range tenants {
			run.Audit.ObserveDelivery(ta.ID, -1, -1, now, 5e6) // 5 ms: over the bound
		}
		run.closeWindow(now)
	}
	window()
	if allocs := testing.AllocsPerRun(1000, window); allocs != 0 {
		t.Errorf("a window tick with violations allocates %v times, want 0", allocs)
	}
	if want := 1001 * len(tenants); len(run.Violations) < want {
		t.Errorf("%d window events, want at least %d", len(run.Violations), want)
	}
}
