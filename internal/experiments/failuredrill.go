package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/units"
	"repro/internal/workload"
)

// FailureDrillSeed is the drill's default seed.
const FailureDrillSeed = 42

// The failure drill's setup: admitted tenants under steady paced load,
// a ToR switch killed mid-run, the control loop detecting the fault,
// evacuating and re-admitting every affected tenant through normal
// admission control, and unpaced resync storms (state re-replication
// toward the relocated VMs) congesting the surviving fabric — the one
// window where even Silo traffic can arrive late, which the window tick
// must attribute to the injected fault rather than blame on
// steady-state pacing. On the 2-pod/4-rack fabric the delay bound
// admits rack-scope placements only (intra-rack path capacity 300µs <
// d < 1.3ms cross-rack), so relocation must find a whole rack or walk
// the degradation ladder, and the resync storm's fan-in over the
// 2:1-oversubscribed uplinks queues well past d.
const (
	// drillTenants are offered for admission, drillVMsPerTenant VMs
	// each (FaultDomains 2).
	drillTenants      = 6
	drillVMsPerTenant = 4
	// The guarantee per VM.
	drillBandwidthBps = 500 * units.Mbps
	drillBurstBytes   = 15e3
	drillDelayBound   = 350e-6
	// Steady workload: every drillIntervalNs each non-aggregator VM
	// sends a drillMsgBytes message to the tenant's VM 0.
	drillMsgBytes   = 20e3
	drillIntervalNs = 2e6
	// drillFailSwitch is killed at drillFaultAtNs and repaired
	// drillRepairNs later.
	drillFailSwitch = "tor0"
	drillFaultAtNs  = 20e6
	drillRepairNs   = 10e6
	// drillDetectNs is the control loop's detection delay: the gap
	// between the fault event and the Recover call.
	drillDetectNs = 500e3
	// drillResyncBytes is sent raw (unpaced, back-to-back) from each of
	// drillResyncSources surviving out-of-rack hosts to every relocated
	// VM — the bulk state transfer that rebuilds the VM, deliberately
	// not protected by the pacer.
	drillResyncBytes   = 60e3
	drillResyncSources = 3
	drillHorizonNs     = 60e6
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
	Delivered     int64
	Violated      int64
	InFault       int64
	Conformance   float64
	NewDelayBound float64 // audited bound after recovery (s; 0 = none)
}

// FailureDrillResult is the drill's full outcome.
type FailureDrillResult struct {
	Admitted int
	Events   []faults.Event
	Recovery *placement.RecoveryReport
	Rows     []DrillTenantRow // sorted by tenant ID
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
	fmt.Fprintf(&b, "failure drill: %s down @%.1fms (detect %.2fms, repair @%.1fms), horizon %.0fms\n",
		drillFailSwitch, drillFaultAtNs/1e6, drillDetectNs/1e6,
		(drillFaultAtNs+drillRepairNs)/1e6, drillHorizonNs/1e6)
	fmt.Fprintf(&b, "tenants: %d offered, %d admitted\n", drillTenants, r.Admitted)
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

// drillScenario is the drill as data: admitted tenants under steady
// phase-staggered all-to-one bursts on a 2-pod/4-rack fabric, the switch
// killed and repaired on schedule, recovery re-deploying every survivor
// and rebuilding it with a resync storm. The seed staggers the
// per-tenant pump phases.
func drillScenario(seed uint64) Scenario {
	sc := Scenario{
		Topology:  TenGbE(2, 2, 4, 4, 2, 2),
		Scheme:    core.SchemeSilo,
		Seed:      seed,
		VMBase:    1000,
		VMGap:     4,
		HorizonNs: drillHorizonNs,
		Faults: fmt.Sprintf("t=%dns switch %s down; t=%dns up",
			int64(drillFaultAtNs), drillFailSwitch, int64(drillFaultAtNs+drillRepairNs)),
		DetectNs:      drillDetectNs,
		Redeploy:      true,
		ResyncBytes:   drillResyncBytes,
		ResyncSources: drillResyncSources,
		Planes:        Planes{Audit: true, Windows: true, Incidents: true},
	}
	for i := 0; i < drillTenants; i++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Spec: tenant.Spec{
				ID:   i + 1,
				Name: fmt.Sprintf("drill-%d", i+1),
				VMs:  drillVMsPerTenant,
				Guarantee: tenant.Guarantee{
					BandwidthBps: drillBandwidthBps,
					BurstBytes:   drillBurstBytes,
					DelayBound:   drillDelayBound,
					BurstRateBps: 10 * units.Gbps,
				},
				FaultDomains: 2,
			},
			Hose:   Hose{Kind: HoseFairShare, Pattern: workload.AllToOne(drillVMsPerTenant)},
			Driver: Driver{Kind: DriverBurst, MsgBytes: drillMsgBytes, PeriodNs: drillIntervalNs, RandomPhase: true},
		})
	}
	return sc
}

// RunFailureDrill builds the fabric, admits and deploys the tenants,
// runs the steady workload, kills the configured switch mid-run, and
// drives the full recovery loop: detect → Recover (evacuate +
// re-admit) → re-deploy on the new placement → unpaced resync storm →
// steady workload resumes. Returns the recovery-latency and
// guarantee-violation table.
func RunFailureDrill(seed uint64) (*FailureDrillResult, error) {
	run, err := RunScenario(drillScenario(seed), Env{})
	if err != nil {
		return nil, err
	}
	res := &FailureDrillResult{
		Admitted:      len(run.Tenants),
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
			row.RecoveryNs = tr.RecoveredAtNs - drillFaultAtNs
		}
		if ta, ok := run.Audit.Tenant(id); ok {
			row.NewDelayBound = float64(ta.DelayBoundNs) / 1e9
			row.Delivered, row.Violated, row.InFault = ta.Packets, ta.Violations, inFault[id]
			if ta.Packets > 0 {
				row.Conformance = 1 - float64(ta.Violations)/float64(ta.Packets)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
