package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/dashboard"
)

// TestSeriesJSONWritten runs the failure drill with every plane on and
// writes its series.json. With the fault, recovery re-deploys the
// tenants mid-run. Either way the document must be written and parse as
// JSON with every block, and its incidents must hold violations exactly
// when a fault was injected.
func TestSeriesJSONWritten(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults bool
	}{{"steady", false}, {"fault", true}} {
		t.Run(c.name, func(t *testing.T) {
			sc := drillScenario(FailureDrillSeed)
			if !c.faults {
				sc.Faults = ""
			}
			sc.Planes.TraceSampleN = 1
			sc.Planes.Introspect = true
			meta := obs.RunMeta{Tool: "series", Version: "v<1>&", Seed: 42}
			run, err := Build(sc, Env{Meta: &meta})
			if err != nil {
				t.Fatal(err)
			}
			run.Execute(context.Background())
			run.Finish()
			rs := run.Net.Sim.RuntimeStats()
			var b bytes.Buffer
			if err := dashboard.WriteJSON(&b, dashboard.Payload{
				Title:     "drill \"" + c.name + "\"",
				Incidents: run.Incidents,
				Runtime:   &rs,
				Meta:      &meta,
			}); err != nil {
				t.Fatal(err)
			}
			var doc dashboard.Payload
			if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
				t.Fatalf("series.json does not parse: %v", err)
			}
			if doc.Title != "drill \""+c.name+"\"" || doc.Incidents == nil || doc.Runtime == nil || doc.Meta == nil {
				t.Fatalf("series.json lacks a block: %+v", doc)
			}
			if doc.Incidents.TotalViolations > 0 != c.faults {
				t.Errorf("%d violations correlated, fault injected: %v", doc.Incidents.TotalViolations, c.faults)
			}
		})
	}
}

// TestWindowTickAllocatesNothing closes windows on a finished drill run
// with every plane on: naming the culprit port, diffing each tenant's
// violations and resetting the tracker allocate nothing.
func TestWindowTickAllocatesNothing(t *testing.T) {
	sc := drillScenario(FailureDrillSeed)
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
	sc := drillScenario(FailureDrillSeed)
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
	sc := drillScenario(FailureDrillSeed)
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
