// Package slo turns the guarantee audit into a continuous per-tenant
// SLO: did the tenant's delivered messages meet the admitted M(B,S,d)
// delay bound, window by window, and how fast is the tenant burning
// through its error budget?
//
// The Silo paper's promise is binary — every message inside M(B,S,d),
// always — but an operator watching a running cluster needs the SRE
// framing: an objective (e.g. 99.9% of messages within the bound, per
// tenant), an error budget (the 0.1%), and multi-window burn-rate
// alerts that fire fast on a sharp breach and slowly on a smoulder.
// For a correct Silo deployment every burn rate is exactly zero, which
// is the point: any non-zero burn is a finding, and the alert names
// the tenant and the culprit port so the finding is actionable.
//
// Definitions (Google SRE workbook, adapted to simulated time):
//
//	error rate  = violated / delivered, over some lookback of windows
//	burn rate   = error rate / (1 - objective)
//
// A burn rate of 1 means the tenant spends budget exactly as fast as
// the objective allows; 14.4 means a 30-day budget gone in 2 days.
// Each alert pair requires BOTH a long and a short lookback to exceed
// the threshold: the long window gives the alert its significance, the
// short window makes it reset quickly once the breach stops.
//
// The work is split in two. A Recorder runs on simulated time: the
// harness calls Close at each window boundary (netsim clock, never the
// wall clock), and the recorder appends one row per window, the
// auditor's cumulative per-tenant counters diffed into the window's
// deliveries and violations. Evaluate runs once after the run: it
// replays the rows through both alert pairs and returns the reports,
// the event log and the windows.
package slo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

const (
	// Objective is the per-window fraction of delivered messages that
	// must meet the admitted bound d. Typed, so the error budget
	// 1-Objective is the float64 difference.
	Objective float64 = 0.999

	// The fast alert pair catches a sharp breach within a couple of
	// windows: 12-window long and 2-window short lookbacks, threshold
	// 14.4 (the SRE "2% of a 30-day budget in one hour" figure, reused
	// as a dimensionless severity knob).
	fastLongWindows, fastShortWindows = 12, 2
	fastThreshold                     = 14.4
	// The slow alert pair catches a smoulder the fast pair resets past:
	// 60-window long and 10-window short lookbacks, threshold 3.
	slowLongWindows, slowShortWindows = 60, 10
	slowThreshold                     = 3
)

// EventKind classifies an SLO event.
type EventKind uint8

const (
	// EventWindowViolation: a window in which a tenant had at least one
	// delivered message over its bound d.
	EventWindowViolation EventKind = iota
	// EventFastBurnStart / EventFastBurnEnd bracket a fast-alert firing.
	EventFastBurnStart
	EventFastBurnEnd
	// EventSlowBurnStart / EventSlowBurnEnd bracket a slow-alert firing.
	EventSlowBurnStart
	EventSlowBurnEnd
)

func (k EventKind) String() string {
	switch k {
	case EventWindowViolation:
		return "window-violation"
	case EventFastBurnStart:
		return "fast-burn-start"
	case EventFastBurnEnd:
		return "fast-burn-end"
	case EventSlowBurnStart:
		return "slow-burn-start"
	case EventSlowBurnEnd:
		return "slow-burn-end"
	default:
		return "unknown"
	}
}

// Event is one structured SLO occurrence: which tenant, which window,
// how hard the budget is burning, and the culprit port the window's
// close named (-1 when none). The identifying fields (time, tenant,
// window, culprit, fault) live in the embedded obs.ViolationEvent — the
// unified record shared with the guarantee auditor's delivery tap and
// consumed by the incident engine — so the JSON payload keeps its
// historical keys while the SLO plane emits the same schema as every
// other instrument.
type Event struct {
	obs.ViolationEvent
	Kind EventKind `json:"kind"`
	// Delivered/Violated are the triggering window's counts (Violated
	// mirrors the embedded Count for window events).
	Delivered int64 `json:"delivered"`
	Violated  int64 `json:"violated"`
	// BurnRate is the window burn for violations, the long-lookback
	// burn for alert transitions.
	BurnRate float64 `json:"burn_rate"`
}

// Render formats the event for logs; ports (may be nil) resolves the
// culprit port name.
func (e Event) Render(ports []obs.PortMeta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%.3fms] %s tenant=%d window=[%.3fms,%.3fms] delivered=%d violated=%d burn=%.1f",
		float64(e.TimeNs)/1e6, e.Kind, e.Tenant,
		float64(e.WindowStartNs)/1e6, float64(e.WindowEndNs)/1e6,
		e.Delivered, e.Violated, e.BurnRate)
	if e.CulpritPort >= 0 {
		fmt.Fprintf(&b, " culprit=%s(+%.2fµs queue)", obs.PortName(ports, e.CulpritPort), float64(e.CulpritQueueNs)/1e3)
	}
	if e.Fault != "" {
		fmt.Fprintf(&b, " fault=[%s]", e.Fault)
	}
	return b.String()
}

// window is one closed window's span and the port the caller blamed
// for its queueing (-1 when none queued).
type window struct {
	startNs, endNs int64
	culpritPort    int32
	culpritQueueNs int64
}

// cell is one tenant's share of a window's row.
type cell struct {
	delivered, violated int64
	boundNs             int64
}

// series is one tracked tenant's column of the rows: cells[i] belongs
// to window first+i.
type series struct {
	t     *obs.TenantAudit
	first int
	cells []cell
	// prev* are the auditor's cumulative counters at the last close.
	prevPackets    int64
	prevViolations int64
}

// Recorder records, window by window, each delay-bounded tenant's
// deliveries and violations from a GuaranteeAuditor's cumulative
// counters. Close must be called with strictly increasing simulated
// timestamps.
type Recorder struct {
	auditor  *obs.GuaranteeAuditor
	windowNs int64
	windows  []window
	tenants  []*series // delay-bounded tenants, sorted by ID
	seenIDs  int       // auditor.NumTenants() at the last refresh
}

// NewRecorder returns a recorder over auditor; windowNs is the window
// length, recorded for rendering (the caller owns the clock). Without
// an auditor the recorder closes no windows.
func NewRecorder(auditor *obs.GuaranteeAuditor, windowNs int64) *Recorder {
	return &Recorder{auditor: auditor, windowNs: windowNs}
}

// refreshTenants picks up newly admitted tenants, preserving recorded
// columns. Allocates only when the admitted set actually grew.
func (r *Recorder) refreshTenants() {
	n := r.auditor.NumTenants()
	if n == r.seenIDs {
		return
	}
	r.seenIDs = n
	byID := make(map[int]*series, len(r.tenants))
	for _, s := range r.tenants {
		byID[s.t.ID] = s
	}
	all := r.auditor.Tenants()
	r.tenants = r.tenants[:0]
	for _, t := range all {
		if t.DelayBoundNs <= 0 {
			continue // no delay SLO: audited, but not an SLO subject
		}
		s, ok := byID[t.ID]
		if !ok {
			s = &series{t: t, first: len(r.windows)}
		}
		r.tenants = append(r.tenants, s)
	}
	sort.Slice(r.tenants, func(i, j int) bool { return r.tenants[i].t.ID < r.tenants[j].t.ID })
}

// Close closes the window from the previous close (0 for the first) to
// nowNs and appends its row: the span, the culprit port the caller
// attributed to it (-1 for none), and per tracked tenant the window's
// deliveries, violations and bound d. The appends amortize to zero
// allocations per window.
func (r *Recorder) Close(nowNs int64, culpritPort int32, culpritQueueNs int64) {
	if r.auditor == nil {
		return
	}
	r.refreshTenants()
	var startNs int64
	if n := len(r.windows); n > 0 {
		startNs = r.windows[n-1].endNs
	}
	r.windows = append(r.windows, window{startNs, nowNs, culpritPort, culpritQueueNs})
	for _, s := range r.tenants {
		pk, vi := s.t.Packets, s.t.Violations
		s.cells = append(s.cells, cell{pk - s.prevPackets, vi - s.prevViolations, s.t.DelayBoundNs})
		s.prevPackets, s.prevViolations = pk, vi
	}
}

// burn converts (violated, delivered) into a burn rate against the
// objective's error budget. No traffic burns nothing.
func burn(violated, delivered int64) float64 {
	if delivered <= 0 {
		return 0
	}
	return (float64(violated) / float64(delivered)) / (1 - Objective)
}

// burnOver is the burn rate over the k windows ending at window i;
// windows before the tenant was tracked count as empty.
func (s *series) burnOver(i, k int) float64 {
	var del, vio int64
	for j := max(i-k+1, s.first); j <= i; j++ {
		c := s.cells[j-s.first]
		del += c.delivered
		vio += c.violated
	}
	return burn(vio, del)
}

// Result is a run's evaluated SLO.
type Result struct {
	// WindowNs is the window length, Windows how many windows closed.
	WindowNs int64
	Windows  int64
	// Reports summarizes every tracked tenant, sorted by ID.
	Reports []TenantReport
	// Events is the event log in emission order: window by window,
	// tenant by tenant, a window violation before the alert transitions.
	Events []Event

	rec *Recorder
}

// Evaluate replays the recorded windows through both burn-rate alert
// pairs and returns the reports and the event log. faultIn (may be
// nil; typically faults.Injector.FaultIn, which answers after the run
// as it would have during it) labels the windows that overlap an
// injected outage: their events carry the fault and their violations
// are tallied separately.
func (r *Recorder) Evaluate(faultIn func(sinceNs, untilNs int64) (label string, ok bool)) *Result {
	res := &Result{WindowNs: r.windowNs, Windows: int64(len(r.windows)), rec: r}
	res.Reports = make([]TenantReport, len(r.tenants))
	for i, w := range r.windows {
		var label string
		var inFault bool
		if faultIn != nil {
			label, inFault = faultIn(w.startNs, w.endNs)
		}
		for j, s := range r.tenants {
			if i < s.first {
				continue
			}
			c := s.cells[i-s.first]
			rep := &res.Reports[j]
			rep.Delivered += c.delivered
			rep.Violated += c.violated

			winBurn := burn(c.violated, c.delivered)
			if i == s.first || winBurn > rep.WorstBurn || (winBurn == rep.WorstBurn && c.violated > rep.WorstViolated) {
				rep.WorstBurn = winBurn
				rep.WorstStartNs, rep.WorstEndNs = w.startNs, w.endNs
				rep.WorstDelivered, rep.WorstViolated = c.delivered, c.violated
			}

			ev := Event{
				ViolationEvent: obs.ViolationEvent{
					TimeNs: w.endNs, Source: obs.SourceWindow, Tenant: s.t.ID,
					VM: -1, SrcVM: -1,
					WindowStartNs: w.startNs, WindowEndNs: w.endNs,
					BoundNs: c.boundNs, Count: c.violated,
					CulpritPort: w.culpritPort, CulpritQueueNs: w.culpritQueueNs,
				},
				Delivered: c.delivered, Violated: c.violated,
			}
			if inFault {
				ev.Fault = label
			}
			if c.violated > 0 {
				if inFault {
					rep.ViolatedDuringFault += c.violated
				}
				v := ev
				v.Kind, v.BurnRate = EventWindowViolation, winBurn
				res.Events = append(res.Events, v)
			}

			rep.BurnFast = s.burnOver(i, fastLongWindows)
			rep.BurnSlow = s.burnOver(i, slowLongWindows)
			fastNow := rep.BurnFast >= fastThreshold && s.burnOver(i, fastShortWindows) >= fastThreshold
			slowNow := rep.BurnSlow >= slowThreshold && s.burnOver(i, slowShortWindows) >= slowThreshold
			if fastNow != rep.FastActive {
				ev.Kind, ev.BurnRate = EventFastBurnEnd, rep.BurnFast
				if fastNow {
					ev.Kind = EventFastBurnStart
					rep.FastAlerts++
				}
				res.Events = append(res.Events, ev)
				rep.FastActive = fastNow
			}
			if slowNow != rep.SlowActive {
				ev.Kind, ev.BurnRate = EventSlowBurnEnd, rep.BurnSlow
				if slowNow {
					ev.Kind = EventSlowBurnStart
					rep.SlowAlerts++
				}
				res.Events = append(res.Events, ev)
				rep.SlowActive = slowNow
			}
		}
	}
	for j, s := range r.tenants {
		rep := &res.Reports[j]
		rep.ID, rep.BoundNs, rep.Windows = s.t.ID, s.t.DelayBoundNs, res.Windows
		rep.Conformance = 1
		if rep.Delivered > 0 {
			rep.Conformance = 1 - float64(rep.Violated)/float64(rep.Delivered)
			rep.BudgetBurntPct = 100 * float64(rep.Violated) / ((1 - Objective) * float64(rep.Delivered))
		}
	}
	return res
}

// WindowPoint is one window of a tenant's SLO series.
type WindowPoint struct {
	StartNs   int64 `json:"start_ns"`
	EndNs     int64 `json:"end_ns"`
	Delivered int64 `json:"delivered"`
	Violated  int64 `json:"violated"`
}

// Column is one tenant's window points, read in place from the
// recorder's rows: At builds a point without copying the series out.
type Column struct {
	windows []window
	first   int
	cells   []cell
}

// Column returns every window the run closed for tenant id, or ok
// false if the tenant has no delay SLO.
func (res *Result) Column(id int) (c Column, ok bool) {
	for _, s := range res.rec.tenants {
		if s.t.ID == id {
			return Column{res.rec.windows, s.first, s.cells}, true
		}
	}
	return Column{}, false
}

// Len is how many windows the run closed.
func (c Column) Len() int { return len(c.windows) }

// At returns window i, with zero counts before the tenant was tracked.
func (c Column) At(i int) WindowPoint {
	w := c.windows[i]
	p := WindowPoint{StartNs: w.startNs, EndNs: w.endNs}
	if i >= c.first {
		x := c.cells[i-c.first]
		p.Delivered, p.Violated = x.delivered, x.violated
	}
	return p
}

// Points returns every window the run closed for tenant id, in
// chronological order (zero counts before the tenant was tracked), or
// nil if the tenant has no delay SLO.
func (res *Result) Points(id int) []WindowPoint {
	r := res.rec
	for _, s := range r.tenants {
		if s.t.ID != id {
			continue
		}
		out := make([]WindowPoint, 0, len(r.windows))
		for i, w := range r.windows {
			p := WindowPoint{StartNs: w.startNs, EndNs: w.endNs}
			if i >= s.first {
				c := s.cells[i-s.first]
				p.Delivered, p.Violated = c.delivered, c.violated
			}
			out = append(out, p)
		}
		return out
	}
	return nil
}

// TenantReport is one tenant's end-of-run SLO summary.
type TenantReport struct {
	ID      int   `json:"id"`
	BoundNs int64 `json:"bound_ns"`
	// Windows is how many windows the run closed; Delivered/Violated
	// are run totals over those windows.
	Windows   int64 `json:"windows"`
	Delivered int64 `json:"delivered"`
	Violated  int64 `json:"violated"`
	// ViolatedDuringFault is the share of Violated landing in windows
	// that overlapped an injected fault's outage (including its grace
	// extension): outage damage, as opposed to steady-state breaches.
	ViolatedDuringFault int64 `json:"violated_during_fault,omitempty"`
	// Conformance is the overall fraction of deliveries inside d.
	Conformance float64 `json:"conformance"`
	// BudgetBurntPct is the error budget consumed, in percent: 100
	// means the tenant used exactly the (1-objective) allowance.
	BudgetBurntPct float64 `json:"budget_burnt_pct"`
	// Worst window by burn rate.
	WorstStartNs   int64   `json:"worst_start_ns"`
	WorstEndNs     int64   `json:"worst_end_ns"`
	WorstBurn      float64 `json:"worst_burn"`
	WorstDelivered int64   `json:"worst_delivered"`
	WorstViolated  int64   `json:"worst_violated"`
	// Last long-lookback burns and alert states.
	BurnFast   float64 `json:"burn_fast"`
	BurnSlow   float64 `json:"burn_slow"`
	FastActive bool    `json:"fast_active"`
	SlowActive bool    `json:"slow_active"`
	FastAlerts int     `json:"fast_alerts"`
	SlowAlerts int     `json:"slow_alerts"`
}

// RenderReport formats the per-tenant SLO table for silo-sim
// -slo-report.
func (res *Result) RenderReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLO report: objective %.4g%% of messages within admitted d, window %.3gms, %d windows closed\n",
		100*Objective, float64(res.WindowNs)/1e6, res.Windows)
	if len(res.Reports) == 0 {
		b.WriteString("  (no delay-bounded tenants)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-7s %10s %10s %9s %9s %12s %11s %9s %9s %s\n",
		"tenant", "delivered", "violated", "in-fault", "conform", "budget-burnt", "worst-burn", "fast", "slow", "alerts(f/s)")
	for _, r := range res.Reports {
		fast, slow := "ok", "ok"
		if r.FastActive {
			fast = "FIRING"
		}
		if r.SlowActive {
			slow = "FIRING"
		}
		fmt.Fprintf(&b, "  %-7d %10d %10d %9d %8.4f%% %11.1f%% %11.1f %9s %9s %d/%d\n",
			r.ID, r.Delivered, r.Violated, r.ViolatedDuringFault, 100*r.Conformance, r.BudgetBurntPct,
			r.WorstBurn, fast, slow, r.FastAlerts, r.SlowAlerts)
	}
	return b.String()
}
