// Package dashboard builds the time-series payload silo-sim -series
// writes at the end of a run (series.json): every rollup series plus
// the SLO's windows, reports and events, the incident report,
// the engine's self-telemetry, the durable store's status and the
// run's provenance.
//
// WriteJSON writes the document; BuildPayload is the same document as
// a Go value, what encoding/json would encode.
package dashboard

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/obs/slo"
	"repro/internal/obs/timeseries"
	"repro/internal/placement/durable"
)

// Options wires the payload's data sources. Any of them may be nil:
// the payload carries what it has.
type Options struct {
	// Title heads the payload (e.g. "silo-sim fig5 run").
	Title string
	// Rollup supplies the series.
	Rollup *timeseries.Rollup
	// SLO is the run's evaluated SLO, the slo block.
	SLO *slo.Result
	// Ports resolves culprit-port names in rendered events.
	Ports []obs.PortMeta
	// Incidents is the run's incident report, the incidents block.
	Incidents *incident.Report
	// Runtime is the simulator's self-telemetry report, taken after
	// the run (typically nw.Sim.RuntimeStats()).
	Runtime *netsim.RuntimeStats
	// WAL is the durable store's status (nil when the run has no -wal).
	WAL *durable.Status
	// Meta stamps the payload with run provenance.
	Meta *obs.RunMeta
}

// Payload is the series.json document.
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
	// Incidents is the run's root-caused incident report.
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

// SLOView is the evaluated SLO as the payload carries it.
type SLOView struct {
	Objective float64      `json:"objective"`
	WindowNs  int64        `json:"window_ns"`
	Windows   int64        `json:"windows"`
	Tenants   []TenantView `json:"tenants"`
	Events    []EventView  `json:"events"`
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

// BuildPayload assembles the series.json document from the wired
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
	if s := opts.SLO; s != nil {
		v := &SLOView{Objective: slo.Objective, WindowNs: s.WindowNs, Windows: s.Windows}
		for _, r := range s.Reports {
			v.Tenants = append(v.Tenants, TenantView{TenantReport: r, Points: s.Points(r.ID)})
		}
		for _, ev := range s.Events {
			v.Events = append(v.Events, EventView{Event: ev, Text: ev.Render(opts.Ports)})
		}
		b.SLO = v
	}
	b.Incidents, b.Runtime, b.WAL, b.Meta = opts.Incidents, opts.Runtime, opts.WAL, opts.Meta
	return b
}

// WriteJSON writes the payload to w (silo-sim -series), byte for byte
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
