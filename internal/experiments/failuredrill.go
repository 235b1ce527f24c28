package experiments

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/placement"
)

// DrillTenantRow is one tenant's end-of-drill outcome.
type DrillTenantRow struct {
	ID      int
	Verdict string // "ok" for tenants the fault never touched
	Degrade string // ladder rung, "-" unless degraded
	// RecoveryNs is fault-to-first-completed-message on the new
	// placement (-1 when not applicable: unaffected or evicted).
	RecoveryNs int64
	// Messages completed over the whole run.
	Messages int
	// The audit's delivered/violated packets, and the violations that
	// landed in windows overlapping the injected outage.
	Delivered   int64
	Violated    int64
	InFault     int64
	Conformance float64
}

// FailureDrillResult is the drill's full outcome.
type FailureDrillResult struct {
	Offered, Admitted int
	// HorizonNs is the drill's length; Events the fault log, the switch's
	// death first and its repair last.
	HorizonNs int64
	Events    []faults.Event
	Recovery  *placement.RecoveryReport
	Rows      []DrillTenantRow // sorted by tenant ID
	// Loss accounting: congestion loss vs outage loss, kept separate.
	OverflowDrops int64
	FaultDrops    int64
	// InvariantsErr is the post-recovery VerifyInvariants failure, ""
	// when the manager's port state checked out.
	InvariantsErr string
	// Incidents is the correlated incident report: every guarantee
	// violation clustered into episodes, each rooted on the injected
	// fault (verdict injected-fault with the outage in the timeline).
	Incidents *incident.Report
}

// Render formats the drill summary. Deterministic: all content derives
// from the simulation clock and sorted tenant IDs, never the wall
// clock, so one seed produces byte-identical output.
func (r *FailureDrillResult) Render() string {
	var b strings.Builder
	down, up := r.Events[0], r.Events[len(r.Events)-1]
	_, sw, _ := strings.Cut(down.Target, " ")
	fmt.Fprintf(&b, "failure drill: %s down @%.1fms (detect %.2fms, repair @%.1fms), horizon %.0fms\n",
		sw, float64(down.TimeNs)/1e6, faultDetectNs/1e6, float64(up.TimeNs)/1e6, float64(r.HorizonNs)/1e6)
	fmt.Fprintf(&b, "tenants: %d offered, %d admitted\n", r.Offered, r.Admitted)
	b.WriteString("fault events:\n")
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "  %s\n", ev)
	}
	if r.Recovery != nil {
		b.WriteString(r.Recovery.Render())
	}
	b.WriteString("per-tenant outcome:\n")
	fmt.Fprintf(&b, "  %-7s %-10s %-8s %12s %6s %10s %9s %9s %9s\n",
		"tenant", "verdict", "degrade", "recovery(ms)", "msgs", "delivered", "violated", "in-fault", "conform")
	for _, row := range r.Rows {
		rec := "-"
		if row.RecoveryNs >= 0 {
			rec = fmt.Sprintf("%.2f", float64(row.RecoveryNs)/1e6)
		}
		fmt.Fprintf(&b, "  %-7d %-10s %-8s %12s %6d %10d %9d %9d %8.3f%%\n",
			row.ID, row.Verdict, row.Degrade, rec, row.Messages,
			row.Delivered, row.Violated, row.InFault, 100*row.Conformance)
	}
	if r.Incidents != nil {
		b.WriteString(r.Incidents.Render())
	}
	fmt.Fprintf(&b, "drops: overflow=%d fault=%d\n", r.OverflowDrops, r.FaultDrops)
	if r.InvariantsErr == "" {
		b.WriteString("invariants: ok\n")
	} else {
		fmt.Fprintf(&b, "invariants: FAILED: %s\n", r.InvariantsErr)
	}
	return b.String()
}

// RunFailureDrill runs the drill of scenarios/faultdrill.json: it
// builds the fabric, admits and deploys the tenants, runs the steady
// workload, kills a switch mid-run, and drives the full recovery loop:
// detect → Recover (evacuate + re-admit) → re-deploy on the new
// placement → unpaced resync storm → steady workload resumes. Returns
// the recovery-latency and guarantee-violation table.
//
// The drill shows the one window where even Silo traffic can arrive
// late — unpaced resync storms (state re-replication toward the
// relocated VMs) congesting the surviving fabric — which the window
// tick must attribute to the injected fault rather than blame on
// steady-state pacing. Six tenants of four VMs (fault domains 2), each
// VM guaranteed {500 Mbps, 15 KB, 350 µs, 10 Gbps}, run phase-staggered
// bursts: every 2 ms each non-aggregator VM sends 20 KB to the tenant's
// VM 0, the seed drawing each tenant's phase. On the 2-pod/4-rack,
// 2:1-oversubscribed fabric the delay bound admits rack-scope
// placements only (intra-rack path capacity 300 µs < d < 1.3 ms
// cross-rack), so relocation must find a whole rack or walk the
// degradation ladder. tor0 dies at 20 ms and is repaired 10 ms later;
// every relocated VM then receives 60 KB raw (unpaced, back-to-back,
// deliberately not protected by the pacer) from each of three
// surviving out-of-rack hosts, and that fan-in over the uplinks queues
// well past d. The run lasts 60 ms.
func RunFailureDrill(sc Scenario) (*FailureDrillResult, error) {
	run, err := RunScenario(sc, Env{})
	if err != nil {
		return nil, err
	}
	res := &FailureDrillResult{
		Offered:       len(sc.Tenants),
		Admitted:      len(run.Tenants),
		HorizonNs:     sc.HorizonNs,
		Events:        run.Injector.Events(),
		OverflowDrops: run.Net.TotalDrops(),
		FaultDrops:    run.Net.TotalFaultDrops(),
		// The drill's violations must all land inside the injected
		// outage's windows (verdict injected-fault) — any other verdict is
		// a finding about the drill itself.
		Incidents: run.Incidents,
	}
	if len(run.Recoveries) > 0 {
		res.Recovery = run.Recoveries[0]
	}
	if err := run.Manager.VerifyInvariants(); err != nil {
		res.InvariantsErr = err.Error()
	}
	inFault := map[int]int64{}
	for _, ev := range run.Violations {
		if ev.Source == obs.SourceWindow && ev.Fault != "" {
			inFault[ev.Tenant] += ev.Count
		}
	}
	for _, tr := range run.Tenants {
		id := tr.Tenant.Spec.ID
		row := DrillTenantRow{
			ID:          id,
			Verdict:     tr.Verdict,
			Degrade:     tr.Degradation,
			RecoveryNs:  -1,
			Messages:    tr.LatencyUs.Len(),
			Conformance: 1,
		}
		if tr.RecoveredAtNs >= 0 {
			row.RecoveryNs = tr.RecoveredAtNs - res.Events[0].TimeNs
		}
		if ta, ok := run.Audit.Tenant(id); ok {
			row.Delivered, row.Violated, row.InFault = ta.Packets, ta.Violations, inFault[id]
			if ta.Packets > 0 {
				row.Conformance = 1 - float64(ta.Violations)/float64(ta.Packets)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
