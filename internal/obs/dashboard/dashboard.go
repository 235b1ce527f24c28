// Package dashboard builds the payload silo-sim -series writes at the
// end of a run (series.json): the SLO recorder's every window with the
// reports and events evaluated from them, the incident report, the
// engine's self-telemetry, the durable store's status and the run's
// provenance.
package dashboard

import (
	"encoding/json"
	"io"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/obs/slo"
	"repro/internal/placement/durable"
)

// Options wires the payload's data sources. Any of them may be nil:
// the payload carries what it has.
type Options struct {
	// Title heads the payload (e.g. "silo-sim fig5 run").
	Title string
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
	Title string   `json:"title"`
	SLO   *SLOView `json:"slo,omitempty"`
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

// TenantView couples a tenant's report with every window of the run.
type TenantView struct {
	slo.TenantReport
	Points []slo.WindowPoint `json:"points"`
}

// EventView couples a structured event with its rendered text.
type EventView struct {
	slo.Event
	Text string `json:"text"`
}

// buildPayload assembles the series.json document from the wired
// sources.
func buildPayload(opts Options) Payload {
	p := Payload{Title: opts.Title, Incidents: opts.Incidents, Runtime: opts.Runtime, WAL: opts.WAL, Meta: opts.Meta}
	if s := opts.SLO; s != nil {
		v := &SLOView{Objective: slo.Objective, WindowNs: s.WindowNs, Windows: s.Windows}
		for _, r := range s.Reports {
			v.Tenants = append(v.Tenants, TenantView{TenantReport: r, Points: s.Points(r.ID)})
		}
		for _, ev := range s.Events {
			v.Events = append(v.Events, EventView{Event: ev, Text: ev.Render(opts.Ports)})
		}
		p.SLO = v
	}
	return p
}

// WriteJSON writes the payload to w (silo-sim -series), indented one
// space per level: the bytes json.Encoder writes with SetIndent("", " "),
// from one json.Marshal and one indenting pass over its output.
func WriteJSON(w io.Writer, opts Options) error {
	compact, err := json.Marshal(buildPayload(opts))
	if err != nil {
		return err
	}
	_, err = w.Write(appendIndented(make([]byte, 0, 2*len(compact)), compact))
	return err
}

// appendIndented appends src, a compact JSON document as json.Marshal
// writes it, laid out as json.Indent does with no prefix and a one-space
// indent, plus the newline json.Encoder ends a value with. Strings are
// copied verbatim and an empty object or array stays {} or [].
func appendIndented(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++ // the escaped byte cannot end the string
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if end := c + 2; src[i+1] == end { // '{'+2 is '}', '['+2 is ']'
				dst = append(dst, end)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		case '}', ']':
			depth--
			dst = appendNewline(dst, depth)
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '\n')
}

// appendNewline starts a line indented to depth.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ')
	}
	return dst
}
