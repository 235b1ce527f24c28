package experiments

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// RunFailureDrill runs the drill of scenarios/faultdrill.json: it
// builds the fabric, admits and deploys the tenants, runs the steady
// workload, kills a switch mid-run, and drives the full recovery loop:
// detect → Recover (evacuate + re-admit) → re-deploy on the new
// placement → unpaced resync storm → steady workload resumes. It
// returns the finished run and, with it, the error VerifyInvariants
// finds in the manager's port state after recovery (nil when it checks
// out).
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
func RunFailureDrill(sc Scenario) (*Run, error) {
	run, err := RunScenario(sc, Env{})
	if err != nil {
		return nil, err
	}
	return run, run.Manager.VerifyInvariants()
}

// drillVerdictCode encodes the recovery verdicts in DrillRows.
var drillVerdictCode = map[string]float64{"ok": 0, "relocated": 1, "degraded": 2, "evicted": 3}

// DrillRows reduces the drill to one row per admitted tenant, in offer
// order: its ID, its verdict (drillVerdictCode), the fault-to-first-
// completed-message time on its new placement in ms (negative when not
// applicable: unaffected or evicted), the messages it completed, the
// audit's delivered and violated packets, the violations that landed in
// windows overlapping the injected outage, and its conformance.
func DrillRows(run *Run) [][]float64 {
	inFault := map[int]int64{}
	for _, ev := range run.Violations {
		if ev.Source == obs.SourceWindow && ev.Fault != "" {
			inFault[ev.Tenant] += ev.Count
		}
	}
	var rows [][]float64
	for _, tr := range run.Tenants {
		id, recoveryNs := tr.Tenant.Spec.ID, int64(-1)
		if tr.RecoveredAtNs >= 0 {
			recoveryNs = tr.RecoveredAtNs - run.Injector.Events()[0].TimeNs
		}
		var delivered, violated int64
		conformance := 1.0
		if ta, ok := run.Audit.Tenant(id); ok {
			delivered, violated = ta.Packets, ta.Violations
			if ta.Packets > 0 {
				conformance = 1 - float64(ta.Violations)/float64(ta.Packets)
			}
		}
		rows = append(rows, []float64{float64(id), drillVerdictCode[tr.Verdict], float64(recoveryNs) / 1e6,
			float64(tr.LatencyUs.Len()), float64(delivered), float64(violated), float64(inFault[id]), conformance})
	}
	return rows
}

// RenderFailureDrill formats the drill summary, with invariants the
// error RunFailureDrill returned beside the run. Deterministic: all
// content derives from the simulation clock and the tenants' offer
// order, never the wall clock, so one seed produces byte-identical
// output.
func RenderFailureDrill(run *Run, invariants error) string {
	var b strings.Builder
	events := run.Injector.Events()
	down, up := events[0], events[len(events)-1]
	_, sw, _ := strings.Cut(down.Target, " ")
	fmt.Fprintf(&b, "failure drill: %s down @%.1fms (detect %.2fms, repair @%.1fms), horizon %.0fms\n",
		sw, float64(down.TimeNs)/1e6, faultDetectNs/1e6, float64(up.TimeNs)/1e6, float64(run.Scenario.HorizonNs)/1e6)
	fmt.Fprintf(&b, "tenants: %d offered, %d admitted\n", len(run.Scenario.Tenants), len(run.Tenants))
	b.WriteString("fault events:\n")
	for _, ev := range events {
		fmt.Fprintf(&b, "  %s\n", ev)
	}
	if len(run.Recoveries) > 0 {
		b.WriteString(run.Recoveries[0].Render())
	}
	b.WriteString("per-tenant outcome:\n")
	fmt.Fprintf(&b, "  %-7s %-10s %-8s %12s %6s %10s %9s %9s %9s\n",
		"tenant", "verdict", "degrade", "recovery(ms)", "msgs", "delivered", "violated", "in-fault", "conform")
	for i, row := range DrillRows(run) {
		rec := "-"
		if row[2] >= 0 {
			rec = fmt.Sprintf("%.2f", row[2])
		}
		tr := run.Tenants[i]
		fmt.Fprintf(&b, "  %-7.0f %-10s %-8s %12s %6.0f %10.0f %9.0f %9.0f %8.3f%%\n",
			row[0], tr.Verdict, tr.Degradation, rec, row[3], row[4], row[5], row[6], 100*row[7])
	}
	if run.Incidents != nil {
		b.WriteString(run.Incidents.Render())
	}
	fmt.Fprintf(&b, "drops: overflow=%d fault=%d\n", run.Net.TotalDrops(), run.Net.TotalFaultDrops())
	if invariants == nil {
		b.WriteString("invariants: ok\n")
	} else {
		fmt.Fprintf(&b, "invariants: FAILED: %v\n", invariants)
	}
	return b.String()
}
