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
// The engine is driven by simulated time: the harness calls Flush at
// each window boundary (netsim clock, never the wall clock), and the
// engine diffs the auditor's cumulative per-tenant counters into
// per-window deliveries and violations held in fixed-capacity rings.
// Steady-state flushes allocate only when they append an alert event,
// and events are capped by Config.MaxEvents.
package slo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Attributor resolves "which port caused the queueing in this time
// window" for alert events; netsim's live per-port window tracker
// implements it. ok is false when the window saw no attributable
// queueing.
type Attributor interface {
	WorstPort(sinceNs, untilNs int64) (port int32, queueNs int64, ok bool)
}

// FaultLookup reports whether an injected-fault outage window overlaps
// [sinceNs, untilNs), returning a label naming the fault event. The
// fault injector's FaultIn method satisfies it. It runs at most once
// per Flush and must not allocate (pre-build labels when the fault is
// recorded, not per query).
type FaultLookup func(sinceNs, untilNs int64) (label string, ok bool)

// Config parameterizes the SLO engine. Zero values select the
// defaults noted on each field.
type Config struct {
	// Objective is the per-window fraction of delivered messages that
	// must meet the admitted bound d. Default 0.999.
	Objective float64
	// WindowNs is the flush period in simulated nanoseconds; purely
	// informational to the engine (the harness owns the clock) but
	// recorded for rendering. Default 1ms.
	WindowNs int64
	// Capacity is how many windows each tenant retains; clamped up to
	// cover the slow alert's long lookback. Default 512.
	Capacity int

	// Fast alert pair: catches a sharp breach within a couple of
	// windows. Defaults: 12-window long / 2-window short lookbacks,
	// threshold 14.4 (the SRE "2% of a 30-day budget in one hour"
	// figure, reused as a dimensionless severity knob).
	FastLongWindows  int
	FastShortWindows int
	FastThreshold    float64

	// Slow alert pair: catches a smoulder the fast pair resets past.
	// Defaults: 60-window long / 10-window short, threshold 3.
	SlowLongWindows  int
	SlowShortWindows int
	SlowThreshold    float64

	// MaxEvents bounds the retained event log; once full, further
	// events increment EventsDropped instead. Default 256.
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	if c.WindowNs <= 0 {
		c.WindowNs = 1e6
	}
	if c.FastLongWindows <= 0 {
		c.FastLongWindows = 12
	}
	if c.FastShortWindows <= 0 {
		c.FastShortWindows = 2
	}
	if c.FastThreshold <= 0 {
		c.FastThreshold = 14.4
	}
	if c.SlowLongWindows <= 0 {
		c.SlowLongWindows = 60
	}
	if c.SlowShortWindows <= 0 {
		c.SlowShortWindows = 10
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 3
	}
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.Capacity < c.SlowLongWindows {
		c.Capacity = c.SlowLongWindows
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 256
	}
	return c
}

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
// how hard the budget is burning, and — when an Attributor is wired —
// the dominant culprit port behind the queueing. The identifying
// fields (time, tenant, window, culprit, fault) live in the embedded
// obs.ViolationEvent — the unified record shared with the guarantee
// auditor's delivery tap and consumed by the incident engine — so the
// JSON payload keeps its historical keys while the engine emits the
// same schema as every other instrument.
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

// tenantState is one delay-bounded tenant's windowed SLO state.
type tenantState struct {
	t *obs.TenantAudit

	// delivered/violated are per-window delta rings parallel to the
	// engine's window ring.
	delivered []int64
	violated  []int64
	// prev* are the auditor's cumulative counters at the last flush.
	prevPackets    int64
	prevViolations int64

	totalDelivered int64
	totalViolated  int64
	// violatedDuringFault counts violations in windows overlapping an
	// injected fault's outage (degraded-mode accounting).
	violatedDuringFault int64

	burnFast, burnSlow     float64
	fastActive, slowActive bool
	fastAlerts, slowAlerts int

	worstBurn                float64
	worstStartNs, worstEndNs int64
	worstDelivered           int64
	worstViolated            int64
	haveWorst                bool
}

// Engine computes per-tenant windowed SLO conformance and multi-window
// burn-rate alerts from a GuaranteeAuditor's cumulative counters.
// Flush must be called with strictly increasing simulated timestamps.
type Engine struct {
	cfg     Config
	auditor *obs.GuaranteeAuditor
	attr    Attributor
	faults  FaultLookup

	tenants []*tenantState // delay-bounded tenants, sorted by ID
	seenIDs int            // auditor.NumTenants() at last refresh
	starts  []int64        // window-boundary rings
	ends    []int64
	head, n int
	flushes int64
	lastEnd int64
	events  []Event
	dropped int64
	sink    func(obs.ViolationEvent)
}

// New returns an engine over auditor with the given config. attr may
// be nil (events then carry CulpritPort -1). auditor may be nil: the
// engine idles, so callers need no conditional wiring.
func New(cfg Config, auditor *obs.GuaranteeAuditor, attr Attributor) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:     cfg,
		auditor: auditor,
		attr:    attr,
		starts:  make([]int64, cfg.Capacity),
		ends:    make([]int64, cfg.Capacity),
	}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetFaultLookup wires an injected-fault outage oracle (typically
// faults.Injector.FaultIn). Violations in windows overlapping an
// outage are labeled with the fault and tallied separately in the
// per-tenant report. A nil engine or nil fn is a no-op; the no-fault
// hot path pays one nil check per Flush.
func (e *Engine) SetFaultLookup(fn FaultLookup) {
	if e == nil {
		return
	}
	e.faults = fn
}

// SetViolationSink forwards every window-violation's unified record
// (the embedded obs.ViolationEvent) to fn as it is emitted — typically
// a ViolationLog shared with the guarantee auditor's delivery tap, so
// the incident engine sees one stream. Alert transitions (burn
// start/end) are not violations and are not forwarded. The sink runs
// inside Flush; it must be cheap and must not call back into the
// engine. nil clears it.
func (e *Engine) SetViolationSink(fn func(obs.ViolationEvent)) {
	if e == nil {
		return
	}
	e.sink = fn
}

// refreshTenants picks up newly admitted tenants, preserving existing
// windowed state. Allocates only when the admitted set actually grew.
func (e *Engine) refreshTenants() {
	n := e.auditor.NumTenants()
	if n == e.seenIDs {
		return
	}
	e.seenIDs = n
	byID := make(map[int]*tenantState, len(e.tenants))
	for _, ts := range e.tenants {
		byID[ts.t.ID] = ts
	}
	all := e.auditor.Tenants()
	e.tenants = e.tenants[:0]
	for _, t := range all {
		if t.DelayBoundNs <= 0 {
			continue // no delay SLO: audited, but not an SLO subject
		}
		ts, ok := byID[t.ID]
		if !ok {
			ts = &tenantState{
				t:         t,
				delivered: make([]int64, e.cfg.Capacity),
				violated:  make([]int64, e.cfg.Capacity),
			}
		}
		e.tenants = append(e.tenants, ts)
	}
	sort.Slice(e.tenants, func(i, j int) bool { return e.tenants[i].t.ID < e.tenants[j].t.ID })
}

// burn converts (violated, delivered) into a burn rate against the
// objective's error budget. No traffic burns nothing.
func (e *Engine) burn(violated, delivered int64) float64 {
	if delivered <= 0 {
		return 0
	}
	return (float64(violated) / float64(delivered)) / (1 - e.cfg.Objective)
}

// burnOver computes the burn rate over the most recent k windows
// (including the slot currently being written at e.head). Called
// during Flush, after the current slot's deltas are stored.
func (e *Engine) burnOver(ts *tenantState, k int) float64 {
	avail := e.n + 1
	if avail > e.cfg.Capacity {
		avail = e.cfg.Capacity
	}
	if k > avail {
		k = avail
	}
	var del, vio int64
	for j := 0; j < k; j++ {
		idx := e.head - j
		if idx < 0 {
			idx += e.cfg.Capacity
		}
		del += ts.delivered[idx]
		vio += ts.violated[idx]
	}
	return e.burn(vio, del)
}

// addEvent appends, enforcing the MaxEvents cap.
func (e *Engine) addEvent(ev Event) {
	if len(e.events) >= e.cfg.MaxEvents {
		e.dropped++
		return
	}
	e.events = append(e.events, ev)
}

// attribute asks the Attributor for the window's culprit port.
func (e *Engine) attribute(sinceNs, untilNs int64) (int32, int64) {
	if e.attr == nil {
		return -1, 0
	}
	port, q, ok := e.attr.WorstPort(sinceNs, untilNs)
	if !ok {
		return -1, 0
	}
	return port, q
}

// Flush closes the window (lastEnd, nowNs]: per delay-bounded tenant
// it diffs the auditor's cumulative counters into the window's
// delivered/violated deltas, updates both burn-rate alert pairs, and
// emits events for window violations and alert transitions.
func (e *Engine) Flush(nowNs int64) {
	if e == nil || e.auditor == nil {
		return
	}
	e.refreshTenants()

	slot := e.head
	winStart := e.lastEnd
	e.starts[slot] = winStart
	e.ends[slot] = nowNs

	var faultLabel string
	var inFault bool
	if e.faults != nil {
		faultLabel, inFault = e.faults(winStart, nowNs)
	}

	for _, ts := range e.tenants {
		pk := ts.t.Packets.Value()
		vi := ts.t.Violations.Value()
		dDel := pk - ts.prevPackets
		dVio := vi - ts.prevViolations
		ts.prevPackets, ts.prevViolations = pk, vi
		ts.delivered[slot] = dDel
		ts.violated[slot] = dVio
		ts.totalDelivered += dDel
		ts.totalViolated += dVio

		winBurn := e.burn(dVio, dDel)
		if !ts.haveWorst || winBurn > ts.worstBurn || (winBurn == ts.worstBurn && dVio > ts.worstViolated) {
			ts.haveWorst = true
			ts.worstBurn = winBurn
			ts.worstStartNs, ts.worstEndNs = winStart, nowNs
			ts.worstDelivered, ts.worstViolated = dDel, dVio
		}

		var culprit int32 = -1
		var culpritQ int64
		attributed := false
		if dVio > 0 {
			if inFault {
				ts.violatedDuringFault += dVio
			}
			culprit, culpritQ = e.attribute(winStart, nowNs)
			attributed = true
			ev := Event{
				ViolationEvent: obs.ViolationEvent{
					TimeNs: nowNs, Source: obs.SourceWindow, Tenant: ts.t.ID,
					VM: -1, SrcVM: -1,
					WindowStartNs: winStart, WindowEndNs: nowNs,
					BoundNs: ts.t.DelayBoundNs, Count: dVio,
					CulpritPort: culprit, CulpritQueueNs: culpritQ,
				},
				Kind:      EventWindowViolation,
				Delivered: dDel, Violated: dVio, BurnRate: winBurn,
			}
			if inFault {
				ev.Fault = faultLabel
			}
			e.addEvent(ev)
			if e.sink != nil {
				e.sink(ev.ViolationEvent)
			}
		}

		fastLong := e.burnOver(ts, e.cfg.FastLongWindows)
		fastShort := e.burnOver(ts, e.cfg.FastShortWindows)
		slowLong := e.burnOver(ts, e.cfg.SlowLongWindows)
		slowShort := e.burnOver(ts, e.cfg.SlowShortWindows)
		ts.burnFast, ts.burnSlow = fastLong, slowLong

		fastNow := fastLong >= e.cfg.FastThreshold && fastShort >= e.cfg.FastThreshold
		slowNow := slowLong >= e.cfg.SlowThreshold && slowShort >= e.cfg.SlowThreshold
		if fastNow != ts.fastActive || slowNow != ts.slowActive {
			if !attributed {
				culprit, culpritQ = e.attribute(winStart, nowNs)
			}
			base := Event{
				ViolationEvent: obs.ViolationEvent{
					TimeNs: nowNs, Source: obs.SourceWindow, Tenant: ts.t.ID,
					VM: -1, SrcVM: -1,
					WindowStartNs: winStart, WindowEndNs: nowNs,
					BoundNs: ts.t.DelayBoundNs, Count: dVio,
					CulpritPort: culprit, CulpritQueueNs: culpritQ,
				},
				Delivered: dDel, Violated: dVio,
			}
			if inFault {
				base.Fault = faultLabel
			}
			if fastNow != ts.fastActive {
				ev := base
				ev.BurnRate = fastLong
				if fastNow {
					ev.Kind = EventFastBurnStart
					ts.fastAlerts++
				} else {
					ev.Kind = EventFastBurnEnd
				}
				e.addEvent(ev)
				ts.fastActive = fastNow
			}
			if slowNow != ts.slowActive {
				ev := base
				ev.BurnRate = slowLong
				if slowNow {
					ev.Kind = EventSlowBurnStart
					ts.slowAlerts++
				} else {
					ev.Kind = EventSlowBurnEnd
				}
				e.addEvent(ev)
				ts.slowActive = slowNow
			}
		}
	}

	e.head++
	if e.head == e.cfg.Capacity {
		e.head = 0
	}
	if e.n < e.cfg.Capacity {
		e.n++
	}
	e.flushes++
	e.lastEnd = nowNs
}

// Flushes returns the number of windows closed so far.
func (e *Engine) Flushes() int64 {
	if e == nil {
		return 0
	}
	return e.flushes
}

// Events returns a copy of the retained event log in emission order.
func (e *Engine) Events() []Event {
	if e == nil {
		return nil
	}
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}

// EventsDropped reports events discarded once MaxEvents was reached.
func (e *Engine) EventsDropped() int64 {
	if e == nil {
		return 0
	}
	return e.dropped
}

// WindowPoint is one retained window of a tenant's SLO series.
type WindowPoint struct {
	StartNs   int64 `json:"start_ns"`
	EndNs     int64 `json:"end_ns"`
	Delivered int64 `json:"delivered"`
	Violated  int64 `json:"violated"`
}

// Windows returns tenant id's retained windows in chronological order,
// or nil if the tenant has no delay SLO.
func (e *Engine) Windows(id int) []WindowPoint {
	if e == nil {
		return nil
	}
	for _, ts := range e.tenants {
		if ts.t.ID != id {
			continue
		}
		out := make([]WindowPoint, e.n)
		start := e.head - e.n
		if start < 0 {
			start += e.cfg.Capacity
		}
		for i := 0; i < e.n; i++ {
			idx := (start + i) % e.cfg.Capacity
			out[i] = WindowPoint{
				StartNs: e.starts[idx], EndNs: e.ends[idx],
				Delivered: ts.delivered[idx], Violated: ts.violated[idx],
			}
		}
		return out
	}
	return nil
}

// TenantReport is one tenant's end-of-run SLO summary.
type TenantReport struct {
	ID      int   `json:"id"`
	BoundNs int64 `json:"bound_ns"`
	// Windows is how many windows the engine closed while tracking the
	// tenant; Delivered/Violated are run totals over those windows.
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
	// Latest long-lookback burns and alert states.
	BurnFast   float64 `json:"burn_fast"`
	BurnSlow   float64 `json:"burn_slow"`
	FastActive bool    `json:"fast_active"`
	SlowActive bool    `json:"slow_active"`
	FastAlerts int     `json:"fast_alerts"`
	SlowAlerts int     `json:"slow_alerts"`
}

// Reports summarizes every tracked tenant, sorted by ID.
func (e *Engine) Reports() []TenantReport {
	if e == nil {
		return nil
	}
	out := make([]TenantReport, 0, len(e.tenants))
	for _, ts := range e.tenants {
		r := TenantReport{
			ID: ts.t.ID, BoundNs: ts.t.DelayBoundNs,
			Windows:   e.flushes,
			Delivered: ts.totalDelivered, Violated: ts.totalViolated,
			ViolatedDuringFault: ts.violatedDuringFault,
			Conformance:         1,
			WorstStartNs:        ts.worstStartNs,
			WorstEndNs:          ts.worstEndNs,
			WorstBurn:           ts.worstBurn,
			WorstDelivered:      ts.worstDelivered,
			WorstViolated:       ts.worstViolated,
			BurnFast:            ts.burnFast,
			BurnSlow:            ts.burnSlow,
			FastActive:          ts.fastActive,
			SlowActive:          ts.slowActive,
			FastAlerts:          ts.fastAlerts,
			SlowAlerts:          ts.slowAlerts,
		}
		if ts.totalDelivered > 0 {
			r.Conformance = 1 - float64(ts.totalViolated)/float64(ts.totalDelivered)
			budget := (1 - e.cfg.Objective) * float64(ts.totalDelivered)
			r.BudgetBurntPct = 100 * float64(ts.totalViolated) / budget
		}
		out = append(out, r)
	}
	return out
}

// RenderReport formats the per-tenant SLO table for silo-sim
// -slo-report.
func (e *Engine) RenderReport() string {
	if e == nil {
		return "slo: disabled"
	}
	reports := e.Reports()
	cfg := e.cfg
	var b strings.Builder
	fmt.Fprintf(&b, "SLO report: objective %.4g%% of messages within admitted d, window %.3gms, %d windows closed\n",
		100*cfg.Objective, float64(cfg.WindowNs)/1e6, e.Flushes())
	if len(reports) == 0 {
		b.WriteString("  (no delay-bounded tenants)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-7s %10s %10s %9s %9s %12s %11s %9s %9s %s\n",
		"tenant", "delivered", "violated", "in-fault", "conform", "budget-burnt", "worst-burn", "fast", "slow", "alerts(f/s)")
	for _, r := range reports {
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
