package experiments

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/dashboard"
)

// TestLiveReadersDuringRun runs a scenario with every observation plane
// while another goroutine reads what the debug endpoint serves. Under
// -race it is the evidence for each lock the planes keep, by naming the
// one reader on another goroutine that needs it:
//
//	Counter/Gauge/Histogram atomics  a /metrics or /debug/vars scrape
//	Registry.mu                      the same scrape, while planes register
//	Rollup.mu, slo.Engine.mu         /api/series
//	Correlator.LastReport            /api/series, the silo_incident_* gauges
//
// The other pull-time gauges (per-port netsim counters, engine
// counters, introspection margins) and the dashboard's engine panel read
// plain simulator fields; they are read here only after the run, which
// is the one time they are safe to read.
func TestLiveReadersDuringRun(t *testing.T) {
	// The failure drill has violations, a recovery that re-deploys (and
	// so registers metrics mid-run) and incidents to correlate.
	sc := drillScenario(DefaultFailureDrillParams())
	sc.Planes.TraceSampleN = 1
	sc.Planes.Introspect = true
	reg := obs.NewRegistry()
	run, err := Build(sc, Env{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	registered := reg.NumMetrics()
	srv, err := obs.ServeDebug("127.0.0.1:0", nil, obs.DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nw := run.Net
	dashboard.Attach(srv, dashboard.Options{
		Title:     "live readers",
		Rollup:    run.Rollup,
		Engine:    run.Engine,
		Ports:     nw.PortMeta(),
		Incidents: run.Correlator,
	})

	// scrape reads every registered metric the way WritePrometheus does,
	// minus the gauge funcs over plain simulator fields.
	scrape := func() {
		for i := 0; i < reg.NumMetrics(); i++ {
			m := reg.MetricAt(i)
			switch {
			case m.Kind() == obs.KindHistogram:
				h := m.Hist()
				_, _, _ = h.Count(), h.Max(), h.Buckets()
			case m.Kind() != obs.KindGaugeFunc || strings.HasPrefix(m.Name(), "silo_incident_"):
				_ = m.ScalarValue()
			}
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var polls int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			scrape()
			resp, err := http.Get("http://" + srv.Addr() + "/api/series")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET /api/series: %s", resp.Status)
				return
			}
			polls++
		}
	}()
	run.Execute(context.Background())
	close(done)
	wg.Wait()
	run.Finish()

	_ = reg.Snapshot() // every gauge func, now that the run is over
	if polls == 0 {
		t.Error("no request completed while the run executed")
	}
	if reg.NumMetrics() == registered {
		t.Error("no metric was registered mid-run")
	}
	if run.Incidents == nil || run.Incidents.TotalViolations == 0 || len(run.Spans) == 0 || run.Snapshot == nil {
		t.Errorf("a plane produced nothing: incidents=%+v spans=%d snapshot=%v",
			run.Incidents, len(run.Spans), run.Snapshot != nil)
	}
}
