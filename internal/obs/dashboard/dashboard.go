// Package dashboard writes series.json, the payload silo-sim -series
// leaves at the end of a run: the SLO recorder's every window with the
// reports and events evaluated from them, the incident report, the
// engine's self-telemetry and the run's provenance.
package dashboard

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/obs/slo"
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
	// Meta stamps the payload with run provenance.
	Meta *obs.RunMeta
}

// Payload is the series.json document as a reader decodes it: WriteJSON
// writes the bytes json.Encoder would write for it.
type Payload struct {
	Title string   `json:"title"`
	SLO   *SLOView `json:"slo,omitempty"`
	// Incidents is the run's root-caused incident report.
	Incidents *incident.Report `json:"incidents,omitempty"`
	// Runtime is the engine self-telemetry report (wheel, overflow-heap
	// and arena pressure).
	Runtime *netsim.RuntimeStats `json:"runtime,omitempty"`
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

// WriteJSON writes the payload to w (silo-sim -series): the bytes
// json.Encoder writes for Payload with SetIndent("", " "), appended in
// one pass into one buffer. The title, the slo block — every window's
// point read straight from the recorder's rows — and the runtime block
// are appended field by field; only the small incidents and meta
// blocks go through json.Marshal, laid out at their depth by
// obs.AppendIndented. Payload is the schema a reader decodes.
func WriteJSON(w io.Writer, opts Options) error {
	incidents, err := marshal(opts.Incidents)
	if err != nil {
		return err
	}
	meta, err := marshal(opts.Meta)
	if err != nil {
		return err
	}
	if err := checkFloats(opts.SLO, opts.Runtime); err != nil {
		return err
	}
	size := 4096 + 2*(len(incidents)+len(meta))
	if s := opts.SLO; s != nil {
		size += len(s.Reports)*(1024+pointBytes*int(s.Windows)) + 640*len(s.Events)
	}

	b := obs.AppendJSONString(append(make([]byte, 0, size), "{\n \"title\": "...), opts.Title)
	if opts.SLO != nil {
		b = appendSLO(append(b, ",\n \"slo\": "...), opts.SLO, opts.Ports)
	}
	if incidents != nil {
		b = obs.AppendIndented(append(b, ",\n \"incidents\": "...), incidents, 1, 1)
	}
	if rs := opts.Runtime; rs != nil {
		e := &rs.Engine
		b = obs.AppendInt(b, ",\n \"runtime\": {\n  \"engine\": {\n   \"events\": ", e.Events)
		b = obs.AppendInt(b, ",\n   \"wheel_hwm\": ", e.WheelHWM)
		b = obs.AppendInt(b, ",\n   \"far_hwm\": ", e.FarHWM)
		b = obs.AppendInt(b, ",\n   \"ev_hits\": ", e.EvHits)
		b = obs.AppendInt(b, ",\n   \"ev_misses\": ", e.EvMisses)
		b = obs.AppendInt(b, ",\n   \"pkt_hits\": ", e.PktHits)
		b = obs.AppendInt(b, ",\n   \"pkt_misses\": ", e.PktMisses)
		b = obs.AppendInt(b, ",\n   \"pkt_in_use\": ", e.PktInUse)
		b = obs.AppendInt(b, ",\n   \"pkt_hwm\": ", e.PktHWM)
		b = appendFloat(b, ",\n   \"ev_hit_rate\": ", e.EvHitRate)
		b = appendFloat(b, ",\n   \"pkt_hit_rate\": ", e.PktHitRate)
		b = append(b, "\n  }\n }"...)
	}
	if meta != nil {
		b = obs.AppendIndented(append(b, ",\n \"meta\": "...), meta, 1, 1)
	}
	_, err = w.Write(append(b, "\n}\n"...))
	return err
}

// pointBytes is about what one window's point takes in the document.
const pointBytes = 120

// appendSLO appends the slo block, which sits one level deep: tenants
// at depth 3, their members at 4, each point at 5 and its members at 6;
// events at 3 and their members at 4.
func appendSLO(b []byte, s *slo.Result, ports []obs.PortMeta) []byte {
	b = appendFloat(b, "{\n  \"objective\": ", slo.Objective)
	b = obs.AppendInt(b, ",\n  \"window_ns\": ", s.WindowNs)
	b = obs.AppendInt(b, ",\n  \"windows\": ", s.Windows)
	b = append(b, ",\n  \"tenants\": "...)
	if len(s.Reports) == 0 {
		b = append(b, "null"...)
	}
	for i := range s.Reports {
		r := &s.Reports[i]
		sep := ",\n   {\n    \"id\": "
		if i == 0 {
			sep = "[\n   {\n    \"id\": "
		}
		b = obs.AppendInt(b, sep, int64(r.ID))
		b = obs.AppendInt(b, ",\n    \"bound_ns\": ", r.BoundNs)
		b = obs.AppendInt(b, ",\n    \"windows\": ", r.Windows)
		b = obs.AppendInt(b, ",\n    \"delivered\": ", r.Delivered)
		b = obs.AppendInt(b, ",\n    \"violated\": ", r.Violated)
		if r.ViolatedDuringFault != 0 {
			b = obs.AppendInt(b, ",\n    \"violated_during_fault\": ", r.ViolatedDuringFault)
		}
		b = appendFloat(b, ",\n    \"conformance\": ", r.Conformance)
		b = appendFloat(b, ",\n    \"budget_burnt_pct\": ", r.BudgetBurntPct)
		b = obs.AppendInt(b, ",\n    \"worst_start_ns\": ", r.WorstStartNs)
		b = obs.AppendInt(b, ",\n    \"worst_end_ns\": ", r.WorstEndNs)
		b = appendFloat(b, ",\n    \"worst_burn\": ", r.WorstBurn)
		b = obs.AppendInt(b, ",\n    \"worst_delivered\": ", r.WorstDelivered)
		b = obs.AppendInt(b, ",\n    \"worst_violated\": ", r.WorstViolated)
		b = appendFloat(b, ",\n    \"burn_fast\": ", r.BurnFast)
		b = appendFloat(b, ",\n    \"burn_slow\": ", r.BurnSlow)
		b = strconv.AppendBool(append(b, ",\n    \"fast_active\": "...), r.FastActive)
		b = strconv.AppendBool(append(b, ",\n    \"slow_active\": "...), r.SlowActive)
		b = obs.AppendInt(b, ",\n    \"fast_alerts\": ", int64(r.FastAlerts))
		b = obs.AppendInt(b, ",\n    \"slow_alerts\": ", int64(r.SlowAlerts))
		b = appendPoints(append(b, ",\n    \"points\": "...), s, r.ID)
		b = append(b, "\n   }"...)
	}
	if len(s.Reports) > 0 {
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"events\": "...)
	if len(s.Events) == 0 {
		b = append(b, "null"...)
	}
	for i := range s.Events {
		ev := &s.Events[i]
		sep := ",\n   {\n    \"time_ns\": "
		if i == 0 {
			sep = "[\n   {\n    \"time_ns\": "
		}
		b = obs.AppendInt(b, sep, ev.TimeNs)
		b = obs.AppendJSONString(append(b, ",\n    \"source\": "...), ev.Source.String())
		b = obs.AppendInt(b, ",\n    \"tenant\": ", int64(ev.Tenant))
		b = obs.AppendInt(b, ",\n    \"vm\": ", int64(ev.VM))
		b = obs.AppendInt(b, ",\n    \"src_vm\": ", int64(ev.SrcVM))
		b = obs.AppendInt(b, ",\n    \"window_start_ns\": ", ev.WindowStartNs)
		b = obs.AppendInt(b, ",\n    \"window_end_ns\": ", ev.WindowEndNs)
		b = obs.AppendInt(b, ",\n    \"delay_ns\": ", ev.DelayNs)
		b = obs.AppendInt(b, ",\n    \"bound_ns\": ", ev.BoundNs)
		b = obs.AppendInt(b, ",\n    \"count\": ", ev.Count)
		b = obs.AppendInt(b, ",\n    \"culprit_port\": ", int64(ev.CulpritPort))
		b = obs.AppendInt(b, ",\n    \"culprit_queue_ns\": ", ev.CulpritQueueNs)
		if ev.Fault != "" {
			b = obs.AppendJSONString(append(b, ",\n    \"fault\": "...), ev.Fault)
		}
		b = obs.AppendInt(b, ",\n    \"kind\": ", int64(ev.Kind))
		b = obs.AppendInt(b, ",\n    \"delivered\": ", ev.Delivered)
		b = obs.AppendInt(b, ",\n    \"violated\": ", ev.Violated)
		b = appendFloat(b, ",\n    \"burn_rate\": ", ev.BurnRate)
		b = obs.AppendJSONString(append(b, ",\n    \"text\": "...), ev.Render(ports))
		b = append(b, "\n   }"...)
	}
	if len(s.Events) > 0 {
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n }"...)
}

// appendPoints appends every window of tenant id as its points array,
// which is never empty: the close that first tracked the tenant made
// its first window.
func appendPoints(b []byte, s *slo.Result, id int) []byte {
	col, ok := s.Column(id)
	if !ok {
		return append(b, "null"...) // no delay SLO, so no series
	}
	sep := "[\n     {\n      \"start_ns\": "
	for i := range col.Len() {
		p := col.At(i)
		b = obs.AppendInt(b, sep, p.StartNs)
		b = obs.AppendInt(b, ",\n      \"end_ns\": ", p.EndNs)
		b = obs.AppendInt(b, ",\n      \"delivered\": ", p.Delivered)
		b = obs.AppendInt(b, ",\n      \"violated\": ", p.Violated)
		b = append(b, "\n     }"...)
		sep = ",\n     {\n      \"start_ns\": "
	}
	return append(b, "\n    ]"...)
}

// appendFloat appends key, then f as encoding/json writes it.
func appendFloat(b []byte, key string, f float64) []byte {
	return obs.AppendJSONFloat(append(b, key...), f)
}

// checkFloats refuses, as json.Marshal does, a float JSON cannot carry.
// Burn rates, conformance and hit rates divide only by positive counts,
// so a NaN or an infinity here is a bug upstream.
func checkFloats(s *slo.Result, rs *netsim.RuntimeStats) error {
	var fs []float64
	if s != nil {
		for _, r := range s.Reports {
			fs = append(fs, r.Conformance, r.BudgetBurntPct, r.WorstBurn, r.BurnFast, r.BurnSlow)
		}
		for _, ev := range s.Events {
			fs = append(fs, ev.BurnRate)
		}
	}
	if rs != nil {
		fs = append(fs, rs.Engine.EvHitRate, rs.Engine.PktHitRate)
	}
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			_, err := json.Marshal(f) // encoding/json's own error
			return err
		}
	}
	return nil
}

// marshal is json.Marshal of a block the payload may leave out (nil).
func marshal[T any](v *T) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	return json.Marshal(v)
}
