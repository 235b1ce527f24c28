package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/dashboard"
)

// TestSeriesJSONMatchesEncoder runs the failure drill with every plane
// on and compares dashboard.WriteJSON with encoding/json over the same
// payload: without the fault the bytes must match; with it, recovery
// registers metrics mid-run, their early windows are NaN, and both must
// refuse the payload with the same error.
func TestSeriesJSONMatchesEncoder(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults bool
	}{{"steady", false}, {"fault", true}} {
		t.Run(c.name, func(t *testing.T) {
			sc := drillScenario(DefaultFailureDrillParams())
			if !c.faults {
				sc.Faults = ""
			}
			sc.Planes.TraceSampleN = 1
			sc.Planes.Introspect = true
			sc.Planes.Series = true
			reg := obs.NewRegistry()
			meta := obs.RunMeta{Tool: "oracle", Version: "v<1>&", Seed: 42}
			run, err := Build(sc, Env{Registry: reg, Meta: &meta})
			if err != nil {
				t.Fatal(err)
			}
			run.Execute(context.Background())
			run.Finish()
			rs := run.Net.Sim.RuntimeStats()
			opts := dashboard.Options{
				Title:     "drill \"" + c.name + "\"",
				Rollup:    run.Rollup,
				Engine:    run.Engine,
				Ports:     run.Net.PortMeta(),
				Incidents: run.Incidents,
				Runtime:   &rs,
				Meta:      &meta,
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", " ")
			werr := enc.Encode(dashboard.BuildPayload(opts))
			var got bytes.Buffer
			gerr := dashboard.WriteJSON(&got, opts)
			if c.faults {
				if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
					t.Fatalf("WriteJSON error %v, encoding/json error %v (want the same NaN refusal)", gerr, werr)
				}
				return
			}
			if werr != nil || gerr != nil {
				t.Fatalf("WriteJSON error %v, encoding/json error %v", gerr, werr)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteJSON (%d bytes) differs from encoding/json (%d bytes)", got.Len(), want.Len())
			}
		})
	}
}

// TestRunCaptureAllocatesNothing captures the registry of a finished
// drill run with every plane on — netsim, placement, introspection and
// SLO gauges among its series — and requires that a capture
// allocate nothing once every metric has been seen.
func TestRunCaptureAllocatesNothing(t *testing.T) {
	sc := drillScenario(DefaultFailureDrillParams())
	sc.Planes.Introspect = true
	sc.Planes.Series = true
	run, err := Build(sc, Env{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	run.Execute(context.Background())
	run.Finish()
	now := run.Net.Sim.Now()
	run.Rollup.Capture(now) // sees any metric registered since the last window
	if allocs := testing.AllocsPerRun(50, func() { now++; run.Rollup.Capture(now) }); allocs != 0 {
		t.Fatalf("a capture of the run's registry allocates %v times, want 0", allocs)
	}
}

// TestWindowTickWithoutSeriesPlane runs the drill as silo-sim
// -slo-report -incidents does — a registry, SLO windows and incident
// correlation, but no series plane: the run builds no rollup, so no
// window takes a capture, and the incident report exists only once
// Finish has correlated the finished streams.
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
