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
// Both /api/series and silo-sim -series (the end-of-run file CI
// archives) write the document through WriteJSON; BuildPayload is the
// same document as a Go value, what encoding/json would encode.
package dashboard

import (
	_ "embed"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
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
	// simulator's self-telemetry report, evaluated per request
	// (typically nw.Sim.RuntimeStats).
	Runtime func() netsim.RuntimeStats
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
	Blocks
}

// Blocks are the payload's small sections after the series, encoded
// reflectively by both writers.
type Blocks struct {
	SLO *SLOView `json:"slo,omitempty"`
	// Incidents is the correlator's latest root-caused report.
	Incidents *incident.Report `json:"incidents,omitempty"`
	// Runtime is the engine self-telemetry report (wheel, overflow-heap
	// and arena pressure).
	Runtime *netsim.RuntimeStats `json:"runtime,omitempty"`
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
	p.Blocks = buildBlocks(opts)
	return p
}

// buildBlocks evaluates every source but the rollup.
func buildBlocks(opts Options) Blocks {
	var b Blocks
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
		b.SLO = v
	}
	if opts.Incidents != nil {
		b.Incidents = opts.Incidents.LastReport()
	}
	if opts.Runtime != nil {
		st := opts.Runtime()
		b.Runtime = &st
	}
	if opts.WAL != nil {
		b.WAL = opts.WAL()
	}
	b.Meta = opts.Meta
	return b
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
		_ = WriteJSON(w, opts)
	}))
}

// WriteJSON writes the payload to w (silo-sim -series end-of-run
// export, and /api/series live), byte for byte
// what encoding/json's Encoder writes for BuildPayload(opts) with
// SetIndent("", " "), and the same error when a value has no JSON form.
// The series, nearly all of the document, are streamed straight from a
// copy of the rollup's rows; only the Blocks go through encoding/json.
func WriteJSON(w io.Writer, opts Options) error {
	f := &timeseries.Frame{}
	var captures int64
	if opts.Rollup != nil {
		fr := opts.Rollup.Frame()
		f, captures = &fr, opts.Rollup.Captures()
	}
	// encoding/json refuses the first NaN or ±Inf in document order
	// before it writes anything; the series precede every block.
	if err := checkFinite(f); err != nil {
		return err
	}
	tail, err := json.MarshalIndent(buildBlocks(opts), "", " ")
	if err != nil {
		return err
	}

	cw := chunkWriter{w: w}
	b := append(make([]byte, 0, 2*chunkBytes), "{\n \"title\": "...)
	b = obs.AppendJSONString(b, opts.Title)
	var nowNs int64
	if n := len(f.TimesNs); n > 0 {
		nowNs = f.TimesNs[n-1]
	}
	b = strconv.AppendInt(append(b, ",\n \"now_ns\": "...), nowNs, 10)
	b = strconv.AppendInt(append(b, ",\n \"captures\": "...), captures, 10)
	b = append(b, ",\n \"times_ns\": "...)
	switch {
	case f.TimesNs == nil:
		b = append(b, "null"...)
	case len(f.TimesNs) == 0:
		b = append(b, "[]"...)
	default:
		for i, t := range f.TimesNs {
			b = appendElem(b, i, "\n  ")
			b = strconv.AppendInt(b, t, 10)
		}
		b = append(b, "\n ]"...)
	}
	b = append(b, ",\n \"series\": "...)
	switch {
	case f.Columns == nil:
		b = append(b, "null"...)
	case len(f.Columns) == 0:
		b = append(b, "[]"...)
	default:
		for j := range f.Columns {
			b = cw.write(appendSeries(append(appendElem(b, j, "\n  "), "{\n   \"Key\": "...), f, j), chunkBytes)
		}
		b = append(b, "\n ]"...)
	}
	// The indented blocks object is "{}" or "{\n \"slo\": …\n}": its
	// members continue the document's top-level object.
	if len(tail) > 2 {
		b = append(append(b, ','), tail[1:]...)
	} else {
		b = append(b, "\n}"...)
	}
	cw.write(append(b, '\n'), 0)
	return cw.err
}

// appendElem opens element i of an indented array: the bracket before
// the first, a comma before the others, then the element's line break
// and indent.
func appendElem(b []byte, i int, indent string) []byte {
	if i == 0 {
		b = append(b, '[')
	} else {
		b = append(b, ',')
	}
	return append(b, indent...)
}

// appendSeries appends series j from its "Key" value to its closing
// brace, at the indentation of an element of the top-level series
// array.
func appendSeries(b []byte, f *timeseries.Frame, j int) []byte {
	c := &f.Columns[j]
	b = obs.AppendJSONString(b, c.Key)
	b = obs.AppendJSONString(append(b, ",\n   \"Name\": "...), c.Name)
	b = append(b, ",\n   \"Labels\": "...)
	switch {
	case c.Labels == nil:
		b = append(b, "null"...)
	case len(c.Labels) == 0:
		b = append(b, "[]"...)
	default:
		for i, l := range c.Labels {
			b = obs.AppendJSONString(appendElem(b, i, "\n    "), l)
		}
		b = append(b, "\n   ]"...)
	}
	b = strconv.AppendInt(append(b, ",\n   \"Kind\": "...), int64(c.Kind), 10)
	b = obs.AppendJSONString(append(b, ",\n   \"Stat\": "...), c.Stat)
	b = append(b, ",\n   \"Values\": "...)
	if len(f.TimesNs) == 0 {
		b = append(b, "[]"...)
	} else {
		for i := range f.TimesNs {
			b = obs.AppendJSONFloat(appendElem(b, i, "\n    "), f.At(i, j))
		}
		b = append(b, "\n   ]"...)
	}
	return append(b, "\n  }"...)
}

// checkFinite returns the error encoding/json gives for the first NaN
// or ±Inf in the series, which it meets series by series.
func checkFinite(f *timeseries.Frame) error {
	for j := range f.Columns {
		for i := range f.TimesNs {
			if v := f.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				return &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
			}
		}
	}
	return nil
}

// chunkBytes is how much of the document WriteJSON gathers before
// handing it to the writer.
const chunkBytes = 32 << 10

// chunkWriter writes a document out in chunks, keeping the first error.
type chunkWriter struct {
	w   io.Writer
	err error
}

// write hands b to w once it holds at least min bytes and returns it
// emptied for reuse; a shorter b comes back as it was.
func (c *chunkWriter) write(b []byte, min int) []byte {
	if len(b) < min {
		return b
	}
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
	return b[:0]
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
