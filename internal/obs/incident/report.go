package incident

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

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

// WriteJSON writes the report as JSON indented two spaces per level,
// with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteFile writes the report to path as WriteJSON lays it out. A
// report that does not marshal leaves no file behind.
func (r *Report) WriteFile(path string) error {
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
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

// truncate shortens s to at most n-1 bytes plus an ellipsis, cutting
// at a rune boundary so a multi-byte rune is never split.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n - 1
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "…"
}
