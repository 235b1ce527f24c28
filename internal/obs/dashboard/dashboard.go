// Package dashboard is the live view over the continuous-telemetry
// stack: it attaches two handlers to the obs debug endpoint —
//
//	/            a self-contained HTML dashboard (go:embed, zero
//	             external assets) with per-tenant SLO conformance
//	             sparklines, burn-rate alert state, and a per-port
//	             queue high-water-mark heatmap
//	/api/series  the same data as JSON: every rollup series plus the
//	             SLO engine's windows, reports and events
//
// The payload builder is exported separately so silo-sim -series can
// write the identical JSON to a file at end of run, and CI can archive
// it as an artifact.
package dashboard

import (
	_ "embed"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/incident"
	obsruntime "repro/internal/obs/runtime"
	"repro/internal/obs/slo"
	"repro/internal/obs/timeseries"
	"repro/internal/placement/durable"
)

//go:embed dashboard.html
var pageHTML []byte

// Options wires the dashboard's data sources. Any of them may be nil:
// the dashboard renders what it has.
type Options struct {
	// Title heads the page (e.g. "silo-sim fig5 run").
	Title string
	// Rollup supplies the time-series panel and the queue heatmap.
	Rollup *timeseries.Rollup
	// Engine supplies the SLO panel.
	Engine *slo.Engine
	// Ports resolves culprit-port names in rendered events.
	Ports []obs.PortMeta
	// Incidents supplies the root-caused incidents panel (the
	// correlator's most recent Correlate result).
	Incidents *incident.Correlator
	// Runtime supplies the Engine panel: a collector producing the
	// runtime plane's self-telemetry report, evaluated per request
	// (typically func() { return runtime.Collect(nw) }).
	Runtime func() obsruntime.Stats
	// WAL supplies the durability panel: a collector producing the
	// durable store's status, evaluated per request (nil when the run
	// has no -wal; returning nil renders the panel empty).
	WAL func() *durable.Status
	// Meta stamps the payload with run provenance.
	Meta *obs.RunMeta
}

// Payload is the /api/series document.
type Payload struct {
	Title    string  `json:"title"`
	NowNs    int64   `json:"now_ns"`
	Captures int64   `json:"captures"`
	TimesNs  []int64 `json:"times_ns"`
	// Series uses the timeseries field names (Key, Name, Labels, Kind,
	// Stat, Values).
	Series []timeseries.SeriesData `json:"series"`
	SLO    *SLOView                `json:"slo,omitempty"`
	// Incidents is the correlator's latest root-caused report.
	Incidents *incident.Report `json:"incidents,omitempty"`
	// Runtime is the engine self-telemetry report (wheel, overflow-heap
	// and arena pressure).
	Runtime *obsruntime.Stats `json:"runtime,omitempty"`
	// WAL is the durable store's status (seq, segment size, safe mode,
	// how the last recovery went).
	WAL *durable.Status `json:"wal,omitempty"`
	// Meta is the producing run's provenance.
	Meta *obs.RunMeta `json:"meta,omitempty"`
}

// SLOView is the SLO engine's state rendered for the dashboard.
type SLOView struct {
	Objective     float64      `json:"objective"`
	WindowNs      int64        `json:"window_ns"`
	Windows       int64        `json:"windows"`
	Tenants       []TenantView `json:"tenants"`
	Events        []EventView  `json:"events"`
	EventsDropped int64        `json:"events_dropped"`
}

// TenantView couples a tenant's report with its retained windows.
type TenantView struct {
	slo.TenantReport
	Points []slo.WindowPoint `json:"points"`
}

// EventView couples a structured event with its rendered text.
type EventView struct {
	slo.Event
	Text string `json:"text"`
}

// BuildPayload assembles the /api/series document from the wired
// sources.
func BuildPayload(opts Options) Payload {
	p := Payload{Title: opts.Title}
	if opts.Rollup != nil {
		snap := opts.Rollup.Snapshot()
		p.TimesNs = snap.TimesNs
		p.Series = snap.Series
		p.Captures = opts.Rollup.Captures()
		if len(snap.TimesNs) > 0 {
			p.NowNs = snap.TimesNs[len(snap.TimesNs)-1]
		}
	}
	if opts.Engine != nil {
		cfg := opts.Engine.Config()
		v := &SLOView{
			Objective:     cfg.Objective,
			WindowNs:      cfg.WindowNs,
			Windows:       opts.Engine.Flushes(),
			EventsDropped: opts.Engine.EventsDropped(),
		}
		for _, r := range opts.Engine.Reports() {
			v.Tenants = append(v.Tenants, TenantView{
				TenantReport: r,
				Points:       opts.Engine.Windows(r.ID),
			})
		}
		for _, ev := range opts.Engine.Events() {
			v.Events = append(v.Events, EventView{Event: ev, Text: ev.Render(opts.Ports)})
		}
		p.SLO = v
	}
	if opts.Incidents != nil {
		p.Incidents = opts.Incidents.LastReport()
	}
	if opts.Runtime != nil {
		st := opts.Runtime()
		p.Runtime = &st
	}
	if opts.WAL != nil {
		p.WAL = opts.WAL()
	}
	p.Meta = opts.Meta
	return p
}

// Attach registers the dashboard on a debug server. A nil server is a
// no-op (obs.DebugServer.Handle is nil-safe), so callers wire
// unconditionally.
func Attach(d *obs.DebugServer, opts Options) {
	d.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(pageHTML)
	}))
	d.Handle("/api/series", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(BuildPayload(opts))
	}))
}

// WriteJSON writes the payload to w (silo-sim -series end-of-run
// export; the same document /api/series serves live).
func WriteJSON(w interface{ Write([]byte) (int, error) }, opts Options) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(BuildPayload(opts))
}

// DriveWallClock captures the rollup every period of real time — the
// driver for binaries without a simulated clock (silo-place,
// silo-bench), where "epoch" degrades gracefully to wall time. Returns
// a stop function; safe to call on a nil rollup (no-op).
func DriveWallClock(r *timeseries.Rollup, period time.Duration) (stop func()) {
	if r == nil {
		return func() {}
	}
	if period <= 0 {
		period = time.Second
	}
	var stopped atomic.Bool
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				r.Capture(now.UnixNano())
			}
		}
	}()
	return func() {
		if stopped.CompareAndSwap(false, true) {
			close(done)
		}
	}
}
