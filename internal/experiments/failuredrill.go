package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs/incident"
	"repro/internal/obs/slo"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// FailureDrillParams configures the end-to-end failure drill: admitted
// tenants under steady paced load, a ToR switch killed mid-run, the
// control loop detecting the fault, evacuating and re-admitting every
// affected tenant through normal admission control, and unpaced resync
// storms (state re-replication toward the relocated VMs) congesting the
// surviving fabric — the one window where even Silo traffic can arrive
// late, which the SLO engine must attribute to the injected fault
// rather than blame on steady-state pacing.
type FailureDrillParams struct {
	// Tenants offered for admission, VMsPerTenant each (FaultDomains 2).
	Tenants      int
	VMsPerTenant int
	// Guarantee per VM. DelayBound is chosen so only rack-scope
	// placements are delay-feasible: relocation must find a whole rack
	// or walk the degradation ladder.
	BandwidthBps float64
	BurstBytes   float64
	DelayBound   float64
	// Steady workload: every IntervalNs each non-aggregator VM sends a
	// MsgBytes message to the tenant's VM 0.
	MsgBytes   int
	IntervalNs int64
	// Seed staggers the per-tenant pump phases.
	Seed uint64
	// FailSwitch is the switch killed at FaultAtNs and repaired
	// RepairNs later ("tor0", "pod1", "core").
	FailSwitch string
	FaultAtNs  int64
	RepairNs   int64
	// DetectNs is the control loop's detection delay: the gap between
	// the fault event and the Recover call.
	DetectNs int64
	// ResyncBytes is sent raw (unpaced, back-to-back) from each of
	// ResyncSources surviving out-of-rack hosts to every relocated VM —
	// the bulk state transfer that rebuilds the VM, deliberately not
	// protected by the pacer.
	ResyncBytes   int
	ResyncSources int
	// SLO engine flush period and the injector's outage grace window.
	WindowNs  int64
	GraceNs   int64
	HorizonNs int64
}

// DefaultFailureDrillParams sizes the drill on a 2-pod/4-rack fabric:
// the delay bound admits rack-scope placements only (intra-rack path
// capacity 300µs < d < 1.3ms cross-rack), and the resync storm's
// fan-in over the 2:1-oversubscribed uplinks queues well past d.
func DefaultFailureDrillParams() FailureDrillParams {
	return FailureDrillParams{
		Tenants:       6,
		VMsPerTenant:  4,
		BandwidthBps:  500 * mbps,
		BurstBytes:    15e3,
		DelayBound:    350e-6,
		MsgBytes:      20e3,
		IntervalNs:    2e6,
		Seed:          42,
		FailSwitch:    "tor0",
		FaultAtNs:     20e6,
		RepairNs:      10e6,
		DetectNs:      500e3,
		ResyncBytes:   60e3,
		ResyncSources: 3,
		WindowNs:      1e6,
		GraceNs:       5e6,
		HorizonNs:     60e6,
	}
}

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
	// SLO accounting: delivered/violated packets, and the violations
	// that landed in windows overlapping the injected outage.
	Delivered     int64
	Violated      int64
	InFault       int64
	Conformance   float64
	NewDelayBound float64 // audited bound after recovery (s; 0 = none)
}

// FailureDrillResult is the drill's full outcome.
type FailureDrillResult struct {
	Params   FailureDrillParams
	Admitted int
	Events   []faults.Event
	Recovery *placement.RecoveryReport
	Rows     []DrillTenantRow // sorted by tenant ID
	SLO      []slo.TenantReport
	// SLOEvents is the engine's event log; outage-window violations
	// carry the injected fault's label in Event.Fault.
	SLOEvents []slo.Event
	// Loss accounting: congestion loss vs outage loss, kept separate.
	OverflowDrops int64
	FaultDrops    int64
	// InvariantsErr is the post-recovery VerifyInvariants failure, ""
	// when the manager's port state checked out.
	InvariantsErr string
	// SLOReport is the engine's rendered per-tenant table.
	SLOReport string
	// Incidents is the correlated incident report: every guarantee
	// violation clustered into episodes, each rooted on the injected
	// fault (verdict injected-fault with the outage in the timeline).
	Incidents *incident.Report
}

// Render formats the drill summary. Deterministic: all content derives
// from the simulation clock and sorted tenant IDs, never the wall
// clock, so identical params produce byte-identical output.
func (r *FailureDrillResult) Render() string {
	p := r.Params
	var b strings.Builder
	fmt.Fprintf(&b, "failure drill: %s down @%.1fms (detect %.2fms, repair @%.1fms), horizon %.0fms\n",
		p.FailSwitch, float64(p.FaultAtNs)/1e6, float64(p.DetectNs)/1e6,
		float64(p.FaultAtNs+p.RepairNs)/1e6, float64(p.HorizonNs)/1e6)
	fmt.Fprintf(&b, "tenants: %d offered, %d admitted\n", p.Tenants, r.Admitted)
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
	b.WriteString(r.SLOReport)
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
// and rebuilding it with a resync storm.
func drillScenario(p FailureDrillParams) Scenario {
	sc := Scenario{
		Topology:  TenGbE(2, 2, 4, 4, 2, 2),
		Scheme:    core.SchemeSilo,
		Seed:      p.Seed,
		VMBase:    1000,
		VMGap:     4,
		HorizonNs: p.HorizonNs,
		Faults: fmt.Sprintf("t=%dns switch %s down; t=%dns up",
			p.FaultAtNs, p.FailSwitch, p.FaultAtNs+p.RepairNs),
		DetectNs:      p.DetectNs,
		FaultGraceNs:  p.GraceNs,
		Redeploy:      true,
		ResyncBytes:   p.ResyncBytes,
		ResyncSources: p.ResyncSources,
		Planes: Planes{
			Audit:           true,
			SLOWindowNs:     p.WindowNs,
			Incidents:       true,
			IncidentMergeNs: 2 * p.WindowNs,
		},
	}
	for i := 0; i < p.Tenants; i++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Spec: tenant.Spec{
				ID:   i + 1,
				Name: fmt.Sprintf("drill-%d", i+1),
				VMs:  p.VMsPerTenant,
				Guarantee: tenant.Guarantee{
					BandwidthBps: p.BandwidthBps,
					BurstBytes:   p.BurstBytes,
					DelayBound:   p.DelayBound,
					BurstRateBps: 10 * gbps,
				},
				FaultDomains: 2,
			},
			Hose:   Hose{Kind: HoseFairShare, Pattern: workload.AllToOne(p.VMsPerTenant)},
			Driver: Driver{Kind: DriverBurst, MsgBytes: p.MsgBytes, PeriodNs: p.IntervalNs, RandomPhase: true},
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
func RunFailureDrill(p FailureDrillParams) (*FailureDrillResult, error) {
	run, err := RunScenario(drillScenario(p), Env{})
	if err != nil {
		return nil, err
	}
	res := &FailureDrillResult{
		Params:        p,
		Admitted:      len(run.Tenants),
		Events:        run.Injector.Events(),
		OverflowDrops: run.Net.TotalDrops(),
		FaultDrops:    run.Net.TotalFaultDrops(),
		SLO:           run.Engine.Reports(),
		SLOEvents:     run.Engine.Events(),
		SLOReport:     run.Engine.RenderReport(),
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
	sloByID := map[int]slo.TenantReport{}
	for _, r := range res.SLO {
		sloByID[r.ID] = r
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
			row.RecoveryNs = tr.RecoveredAtNs - p.FaultAtNs
		}
		if ta, ok := run.Audit.Tenant(id); ok {
			row.NewDelayBound = float64(ta.DelayBoundNs) / 1e9
		}
		if sr, ok := sloByID[id]; ok {
			row.Delivered = sr.Delivered
			row.Violated = sr.Violated
			row.InFault = sr.ViolatedDuringFault
			row.Conformance = sr.Conformance
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
