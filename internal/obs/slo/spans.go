// Span-backed windows: given flight-recorder spans annotated by
// obs.AnnotateSpans, how each tenant's conformance evolved window by
// window in a recorded trace, which is what silo-inspect trace -windows
// renders.

package slo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// TraceWindow is one tenant's windowed conformance computed from a
// recorded trace.
type TraceWindow struct {
	StartNs        int64 `json:"start_ns"`
	EndNs          int64 `json:"end_ns"`
	Delivered      int64 `json:"delivered"`
	Violated       int64 `json:"violated"`
	CulpritPort    int32 `json:"culprit_port"` // -1: no violations in window
	CulpritQueueNs int64 `json:"culprit_queue_ns"`
}

// WindowsFromSpans buckets annotated spans into windowNs-wide windows
// aligned to t=0 and returns, per delay-bounded tenant, the windowed
// delivered/violated counts with the dominant culprit port for every
// window that saw violations. Incomplete spans and tenants without a
// bound are skipped. windowNs must be positive.
func WindowsFromSpans(spans []obs.FlightSpan, windowNs int64) map[int32][]TraceWindow {
	type key struct {
		tenant int32
		win    int64
	}
	counts := map[key]*TraceWindow{}
	culpritQ := map[key]map[int32]int64{}
	for i := range spans {
		s := &spans[i]
		if !s.Complete || s.BoundNs <= 0 {
			continue
		}
		win := s.DeliverNs / windowNs
		k := key{s.TenantID, win}
		tw := counts[k]
		if tw == nil {
			tw = &TraceWindow{StartNs: win * windowNs, EndNs: (win + 1) * windowNs, CulpritPort: -1}
			counts[k] = tw
		}
		tw.Delivered++
		if s.Violated() {
			tw.Violated++
			m := culpritQ[k]
			if m == nil {
				m = map[int32]int64{}
				culpritQ[k] = m
			}
			m[s.WorstPort] += s.WorstQueueNs
		}
	}
	for k, m := range culpritQ {
		tw := counts[k]
		for p, q := range m {
			if q > tw.CulpritQueueNs || (q == tw.CulpritQueueNs && tw.CulpritPort >= 0 && p < tw.CulpritPort) {
				tw.CulpritPort, tw.CulpritQueueNs = p, q
			}
		}
	}
	out := map[int32][]TraceWindow{}
	for k, tw := range counts {
		out[k.tenant] = append(out[k.tenant], *tw)
	}
	for _, ws := range out {
		sort.Slice(ws, func(i, j int) bool { return ws[i].StartNs < ws[j].StartNs })
	}
	return out
}

// RenderTraceWindows formats WindowsFromSpans output for silo-inspect
// trace -windows: one block per tenant, one line per window, culprits named.
func RenderTraceWindows(byTenant map[int32][]TraceWindow, ports []obs.PortMeta) string {
	if len(byTenant) == 0 {
		return "windowed conformance: no delay-bounded deliveries in trace\n"
	}
	ids := make([]int32, 0, len(byTenant))
	for id := range byTenant {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "tenant %d windowed conformance:\n", id)
		fmt.Fprintf(&b, "  %-22s %10s %9s %9s  %s\n", "window", "delivered", "violated", "conform", "culprit")
		for _, w := range byTenant[id] {
			conform := 1.0
			if w.Delivered > 0 {
				conform = 1 - float64(w.Violated)/float64(w.Delivered)
			}
			culprit := "-"
			if w.CulpritPort >= 0 {
				culprit = fmt.Sprintf("%s (+%.2fµs queue)", obs.PortName(ports, w.CulpritPort), float64(w.CulpritQueueNs)/1e3)
			}
			fmt.Fprintf(&b, "  [%8.3fms,%8.3fms) %10d %9d %8.3f%%  %s\n",
				float64(w.StartNs)/1e6, float64(w.EndNs)/1e6, w.Delivered, w.Violated, 100*conform, culprit)
		}
	}
	return b.String()
}
