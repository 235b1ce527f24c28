// Package dashboard writes series.json, the payload silo-sim -series
// leaves at the end of a run: the incident report, the engine's
// self-telemetry and the run's provenance.
package dashboard

import (
	"encoding/json"
	"io"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
)

// Payload is the series.json document. Any block may be nil: the
// payload carries what it has.
type Payload struct {
	// Title heads the payload (e.g. "silo-sim fig5 run").
	Title string `json:"title"`
	// Incidents is the run's root-caused incident report.
	Incidents *incident.Report `json:"incidents,omitempty"`
	// Runtime is the engine self-telemetry report (wheel, overflow-heap
	// and arena pressure), taken after the run (nw.Sim.RuntimeStats()).
	Runtime *netsim.RuntimeStats `json:"runtime,omitempty"`
	// Meta is the producing run's provenance.
	Meta *obs.RunMeta `json:"meta,omitempty"`
}

// WriteJSON writes the payload to w (silo-sim -series), one space per
// indent level. A float JSON cannot carry is refused with
// encoding/json's error before anything is written.
func WriteJSON(w io.Writer, p Payload) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}
