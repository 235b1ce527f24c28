package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/dashboard"
)

// TestSeriesJSONWritten runs the failure drill with every plane on, on
// a 100 µs window so it closes 600 windows, and writes its series.json.
// With the fault, recovery re-deploys the tenants mid-run. Either way
// the document must be written and parse as JSON, and each tenant's
// points must cover the whole run: every window the SLO closed, from 0
// to the end of the run.
func TestSeriesJSONWritten(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults bool
	}{{"steady", false}, {"fault", true}} {
		t.Run(c.name, func(t *testing.T) {
			sc := drillScenario(FailureDrillSeed)
			sc.Planes.SLOWindowNs = 100_000
			sc.Planes.IncidentMergeNs = 2 * sc.Planes.SLOWindowNs
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
			if err := dashboard.WriteJSON(&b, dashboard.Options{
				Title:     "drill \"" + c.name + "\"",
				SLO:       run.SLO,
				Ports:     obs.PortsOf(run.Net),
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
			now := run.Net.Sim.Now()
			if doc.SLO == nil || doc.SLO.Windows != now/sc.Planes.SLOWindowNs || len(doc.SLO.Tenants) != drillTenants {
				t.Fatalf("slo block %+v: want %d windows, %d tenants", doc.SLO, now/sc.Planes.SLOWindowNs, drillTenants)
			}
			for _, tv := range doc.SLO.Tenants {
				pts := tv.Points
				if len(pts) == 0 {
					t.Fatalf("tenant %d: no points", tv.ID)
				}
				if int64(len(pts)) != doc.SLO.Windows || pts[0].StartNs != 0 || pts[len(pts)-1].EndNs != now {
					t.Errorf("tenant %d: %d points from %d to %dns, want %d from 0 to %dns",
						tv.ID, len(pts), pts[0].StartNs, pts[len(pts)-1].EndNs, doc.SLO.Windows, now)
				}
			}
		})
	}
}

// TestWindowTickAllocatesNothing closes windows on a finished drill run
// with every plane on: naming the culprit port, recording a row per
// tenant and resetting the tracker allocate nothing once the rows have
// grown.
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

// TestIncidentsCorrelatedAtFinish runs the drill as silo-sim
// -slo-report -incidents does — SLO windows and incident correlation:
// the incident report exists only once Finish has correlated the
// finished streams.
func TestIncidentsCorrelatedAtFinish(t *testing.T) {
	sc := drillScenario(FailureDrillSeed)
	run, err := Build(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	run.Net.Sim.Every(sc.Planes.SLOWindowNs, sc.HorizonNs+sc.DrainNs, func(now int64) {
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
