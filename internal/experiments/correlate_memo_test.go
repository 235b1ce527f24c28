package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/incident"
)

// incidentGauges reads the silo_incident_* families out of reg.
func incidentGauges(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, e := range reg.Snapshot().Entries {
		if strings.HasPrefix(e.Name, "silo_incident_") {
			out[e.Key()] = e.Value
		}
	}
	return out
}

// TestWindowCorrelationMemoExact runs the drill's scenario with the
// series plane on, under its switch failure and under a link flap, and
// after every window tick holds the run's correlator — which re-runs
// Correlate only when the violation log, the fault log or the SLO event
// stream grew — to a fresh correlator fed the same streams on every
// tick: the same LastReport and the same silo_incident_* gauge values,
// window by window. Each run draws a fresh seed for the tenants' pumps.
func TestWindowCorrelationMemoExact(t *testing.T) {
	p := DefaultFailureDrillParams()
	// Each run staggers the tenants' pumps with a fresh seed.
	p.Seed = uint64(time.Now().UnixNano())
	t.Logf("seed %d", p.Seed)
	// The flap hits the down-link into tenant 1's receiving server.
	probe, err := Build(drillScenario(p), Env{})
	if err != nil {
		t.Fatal(err)
	}
	sink := probe.Tree.RackDownPortID(probe.Tenants[0].Handle.Placement.Servers[0])
	for _, c := range []struct{ name, faults string }{
		{"switch", ""}, // the drill's own tor0 down / up
		{"flap", fmt.Sprintf("t=20ms link %d flap 4x1ms/2ms", sink)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := drillScenario(p)
			if c.faults != "" {
				sc.Faults = c.faults
			}
			sc.Planes.Series = true
			reg := obs.NewRegistry()
			run, err := Build(sc, Env{Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			fresh := incident.New(incident.Config{MergeNs: sc.Planes.IncidentMergeNs})
			fresh.SetPortMeta(run.Net.PortMeta())
			freshReg := obs.NewRegistry()
			fresh.RegisterMetrics(freshReg)

			var ticks, skipped int
			var last [3]int64
			var lastReport *incident.Report
			// Scheduled after the window tick, so it fires right after it at
			// every window boundary.
			run.Net.Sim.Every(sc.Planes.SLOWindowNs, sc.HorizonNs+sc.DrainNs, func(now int64) {
				// A re-correlation stores a new report; it must happen exactly
				// on the ticks where a stream grew.
				lens := [3]int64{int64(len(run.Violations.Events())), int64(len(run.Injector.Events())),
					int64(len(run.Engine.Events())) + run.Engine.EventsDropped()}
				rep := run.Correlator.LastReport()
				if ticks > 0 && (lens != last) != (rep != lastReport) {
					t.Fatalf("t=%dns: streams %v -> %v, report re-run %v", now, last, lens, rep != lastReport)
				}
				if lens == last {
					skipped++
				}
				ticks++
				last, lastReport = lens, rep
				fresh.SetViolations(run.Violations.Events())
				fresh.SetFaultEvents(run.Injector.Events(), run.Injector.GraceNs)
				fresh.SetAlerts(run.Engine.Events())
				want, err := json.Marshal(fresh.Correlate())
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(run.Correlator.LastReport())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("t=%dns: memoized report differs from a fresh correlation:\n got %s\nwant %s", now, got, want)
				}
				g, w := incidentGauges(reg), incidentGauges(freshReg)
				for k, v := range w {
					if g[k] != v {
						t.Fatalf("t=%dns: %s = %v, fresh correlation gives %v", now, k, g[k], v)
					}
				}
			})
			run.Execute(context.Background())
			run.Finish()
			if run.Incidents == nil || run.Incidents.TotalViolations == 0 {
				t.Fatalf("no violations correlated: %+v", run.Incidents)
			}
			// The memo must have been both used and bypassed.
			if skipped == 0 || skipped == ticks {
				t.Errorf("%d of %d window ticks kept the last report; want some but not all", skipped, ticks)
			}
		})
	}
}

// TestWindowTickWithoutSeriesPlane runs the drill as silo-sim
// -slo-report -incidents does — a registry, SLO windows and incident
// correlation, but no series plane: the run builds no rollup, so no
// window takes a capture, and correlation waits for Finish.
func TestWindowTickWithoutSeriesPlane(t *testing.T) {
	sc := drillScenario(DefaultFailureDrillParams())
	run, err := Build(sc, Env{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if run.Rollup != nil {
		t.Fatal("a rollup was built with Planes.Series off")
	}
	run.Net.Sim.Every(sc.Planes.SLOWindowNs, sc.HorizonNs+sc.DrainNs, func(now int64) {
		if run.Correlator.LastReport() != nil {
			t.Fatalf("t=%dns: the window tick correlated with Planes.Series off", now)
		}
	})
	run.Execute(context.Background())
	run.Finish()
	if run.Incidents == nil || run.Incidents.TotalViolations == 0 {
		t.Fatalf("no violations correlated at Finish: %+v", run.Incidents)
	}
}
