package incident

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Report is the correlated output of one run: every incident, plus the
// totals the acceptance gates check (all violations accounted for,
// zero unexplained residue).
type Report struct {
	// Meta is run provenance (satellite of every artifact); excluded
	// from Render so rendered reports are comparable across builds and
	// command lines.
	Meta    *obs.RunMeta `json:"meta,omitempty"`
	MergeNs int64        `json:"merge_ns"`
	// TotalViolations sums per-packet guarantee violations across all
	// incidents — it must equal the auditor's violation total, the
	// "every violation lands in exactly one incident" invariant.
	TotalViolations  int64 `json:"total_violations"`
	WindowViolations int64 `json:"window_violations"`
	// Unexplained counts incidents the engine could not classify;
	// BoundBreaches counts paper-falsifying incidents (page!).
	Unexplained   int        `json:"unexplained"`
	BoundBreaches int        `json:"bound_breaches"`
	Incidents     []Incident `json:"incidents"`
}

// ByVerdict counts incidents per verdict class.
func (r *Report) ByVerdict() map[Verdict]int {
	out := make(map[Verdict]int, len(verdictNames))
	for i := range r.Incidents {
		out[r.Incidents[i].Verdict]++
	}
	return out
}

// Incident returns the incident with the given 1-based ID.
func (r *Report) Incident(id int) (*Incident, bool) {
	for i := range r.Incidents {
		if r.Incidents[i].ID == id {
			return &r.Incidents[i], true
		}
	}
	return nil, false
}

// Render formats the incident list. Deterministic, meta-free.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "incident report: %d incident(s), %d violation(s) correlated (merge gap %.1fms)\n",
		len(r.Incidents), r.TotalViolations, float64(r.MergeNs)/1e6)
	if len(r.Incidents) == 0 {
		b.WriteString("  (clean run: no guarantee violations)\n")
		return b.String()
	}
	by := r.ByVerdict()
	var parts []string
	for _, v := range Verdicts() {
		if by[v] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", by[v], v))
		}
	}
	fmt.Fprintf(&b, "  verdicts: %s\n", strings.Join(parts, ", "))
	if r.BoundBreaches > 0 {
		fmt.Fprintf(&b, "  *** PAGE: %d bound-breach incident(s) — conformant arrivals missed d; the admission math is falsified ***\n", r.BoundBreaches)
	}
	fmt.Fprintf(&b, "  %-4s %-22s %-22s %10s %8s %-8s %s\n",
		"id", "window", "verdict", "violations", "tenants", "worst", "cause")
	for i := range r.Incidents {
		inc := &r.Incidents[i]
		verdict := inc.Verdict.String()
		if inc.Page {
			verdict += " PAGE"
		}
		fmt.Fprintf(&b, "  %-4d [%9.3f,%9.3f]ms %-22s %10d %8s %7.1fµs %s\n",
			inc.ID, float64(inc.StartNs)/1e6, float64(inc.EndNs)/1e6, verdict,
			inc.Violations, intsCompact(inc.Tenants),
			float64(inc.WorstDelayNs)/1e3, truncate(inc.Reason, 80))
	}
	return b.String()
}

// RenderIncident formats one incident's drill-down with its causal
// timeline.
func (r *Report) RenderIncident(id int) string {
	inc, ok := r.Incident(id)
	if !ok {
		return fmt.Sprintf("incident %d: not found (%d incidents in report)\n", id, len(r.Incidents))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== incident %d: %s ==\n", inc.ID, inc.Verdict)
	if inc.Page {
		b.WriteString("*** PAGE ***\n")
	}
	fmt.Fprintf(&b, "window    [%.3f, %.3f]ms\n", float64(inc.StartNs)/1e6, float64(inc.EndNs)/1e6)
	fmt.Fprintf(&b, "cause     %s\n", inc.Reason)
	fmt.Fprintf(&b, "impact    %d packet violation(s), %d window violation(s); worst delay %.1fµs against bound %.1fµs\n",
		inc.Violations, inc.WindowViolations, float64(inc.WorstDelayNs)/1e3, float64(inc.BoundNs)/1e3)
	fmt.Fprintf(&b, "blast     tenants %v", inc.Tenants)
	if len(inc.VMs) > 0 {
		fmt.Fprintf(&b, ", victim VMs %s", intsCompact(inc.VMs))
	}
	if len(inc.SrcVMs) > 0 {
		fmt.Fprintf(&b, ", sender VMs %s", intsCompact(inc.SrcVMs))
	}
	if len(inc.Ports) > 0 {
		fmt.Fprintf(&b, ", ports %v", inc.Ports)
	}
	b.WriteByte('\n')
	if len(inc.CulpritVMs) > 0 {
		fmt.Fprintf(&b, "culprits  tenant(s) %v via VM(s) %v\n", inc.CulpritTenants, inc.CulpritVMs)
	}
	if inc.MinMarginPort >= 0 {
		fmt.Fprintf(&b, "margin    tightest introspected port %d: %.1f KB\n", inc.MinMarginPort, inc.MinMarginBytes/1e3)
	}
	b.WriteString("timeline:\n")
	for _, te := range inc.Timeline {
		fmt.Fprintf(&b, "  %10.3fms  %-11s %s\n", float64(te.TimeNs)/1e6, te.Kind, te.Detail)
	}
	return b.String()
}

// WriteJSON writes the report as indented JSON with trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the report to path as JSON (or to stdout for "-").
func (r *Report) WriteFile(path string) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// csvHeader is the incident CSV schema.
var csvHeader = []string{
	"id", "start_ns", "end_ns", "verdict", "page", "violations",
	"window_violations", "worst_delay_ns", "bound_ns", "tenants",
	"vms", "src_vms", "ports", "culprit_tenants", "culprit_vms",
	"min_margin_port", "min_margin_bytes", "faults", "reason",
}

// WriteCSV exports one row per incident, preceded by the run-meta
// comment line when stamped (readers must skip `#` lines).
func (r *Report) WriteCSV(w io.Writer) error {
	if line := r.Meta.CommentLine(); line != "" {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range r.Incidents {
		inc := &r.Incidents[i]
		row := []string{
			strconv.Itoa(inc.ID),
			strconv.FormatInt(inc.StartNs, 10),
			strconv.FormatInt(inc.EndNs, 10),
			inc.Verdict.String(),
			strconv.FormatBool(inc.Page),
			strconv.FormatInt(inc.Violations, 10),
			strconv.FormatInt(inc.WindowViolations, 10),
			strconv.FormatInt(inc.WorstDelayNs, 10),
			strconv.FormatInt(inc.BoundNs, 10),
			intsCompact(inc.Tenants),
			intsCompact(inc.VMs),
			intsCompact(inc.SrcVMs),
			ports32Compact(inc.Ports),
			intsCompact(inc.CulpritTenants),
			intsCompact(inc.CulpritVMs),
			strconv.Itoa(inc.MinMarginPort),
			strconv.FormatFloat(inc.MinMarginBytes, 'f', 1, 64),
			strings.Join(inc.Faults, "; "),
			inc.Reason,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RegisterMetrics exports the correlator's latest report through an
// obs registry as the silo_incident_* families. Gauges read
// LastReport at export or capture time, so re-running Correlate
// refreshes the export without re-registration; before the first
// Correlate every gauge reads 0. A nil registry is a no-op.
func (c *Correlator) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("silo_incident_total",
		"correlated incidents in the latest report",
		func() float64 {
			if r := c.LastReport(); r != nil {
				return float64(len(r.Incidents))
			}
			return 0
		})
	for _, v := range Verdicts() {
		v := v
		reg.GaugeFunc("silo_incident_verdict_total",
			"incidents per root-cause verdict class",
			func() float64 {
				if r := c.LastReport(); r != nil {
					return float64(r.ByVerdict()[v])
				}
				return 0
			}, "verdict", v.String())
	}
	reg.GaugeFunc("silo_incident_violations_total",
		"guarantee violations correlated into incidents (must equal the audit total)",
		func() float64 {
			if r := c.LastReport(); r != nil {
				return float64(r.TotalViolations)
			}
			return 0
		})
	reg.GaugeFunc("silo_incident_unexplained_total",
		"incidents the engine could not root-cause (must be 0 in instrumented runs)",
		func() float64 {
			if r := c.LastReport(); r != nil {
				return float64(r.Unexplained)
			}
			return 0
		})
	reg.GaugeFunc("silo_incident_bound_breach_total",
		"paper-falsifying incidents: conformant arrivals missed d (page loudly)",
		func() float64 {
			if r := c.LastReport(); r != nil {
				return float64(r.BoundBreaches)
			}
			return 0
		})
}

func intsCompact(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

func ports32Compact(xs []int32) string {
	if len(xs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(x), 10))
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
