package placement

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/tenant"
)

// Verdict classifies the outcome of recovering one affected tenant
// after a failure.
type Verdict int

const (
	// VerdictRelocated: re-admitted with the original guarantee intact.
	VerdictRelocated Verdict = iota
	// VerdictDegraded: re-admitted, but only after loosening the
	// guarantee (larger d and/or smaller B); the degradation is
	// recorded explicitly, never silent.
	VerdictDegraded
	// VerdictEvicted: no feasible placement even fully degraded; the
	// tenant is out and its resources are released.
	VerdictEvicted
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictRelocated:
		return "relocated"
	case VerdictDegraded:
		return "degraded"
	case VerdictEvicted:
		return "evicted"
	}
	return "unknown"
}

// DegradeStep is one rung of the degradation ladder: the guarantee a
// tenant is offered when its original one no longer fits the surviving
// fabric.
type DegradeStep struct {
	// DelayFactor multiplies the delay bound d (0 drops the bound
	// entirely, turning the tenant bandwidth-only).
	DelayFactor float64
	// BandwidthFactor multiplies the hose bandwidth B (1 keeps it).
	BandwidthFactor float64
	// Note labels the rung in reports.
	Note string
}

// degradeLadder is the rung sequence Recover tries, strictest
// first, when re-admission with the original guarantee fails: first
// trade delay, then bandwidth, then the delay bound entirely. Burst
// allowance S is never touched — it is what keeps short messages
// cheap, and shrinking it saves almost no fabric capacity.
func degradeLadder() []DegradeStep {
	return []DegradeStep{
		{DelayFactor: 2, BandwidthFactor: 1, Note: "d×2"},
		{DelayFactor: 4, BandwidthFactor: 1, Note: "d×4"},
		{DelayFactor: 4, BandwidthFactor: 0.5, Note: "d×4 B/2"},
		{DelayFactor: 0, BandwidthFactor: 0.5, Note: "no-d B/2"},
	}
}

// TenantRecovery is the per-tenant outcome of one Recover call.
type TenantRecovery struct {
	ID           int
	Name         string
	Verdict      Verdict
	OldServers   []int
	NewServers   []int // nil when evicted
	OldGuarantee tenant.Guarantee
	NewGuarantee tenant.Guarantee // zero value when evicted
	// Degradation names the ladder rung used ("" when relocated or
	// evicted).
	Degradation string
}

// RecoveryReport summarizes one Recover call.
type RecoveryReport struct {
	FailedServers []int
	FailedPorts   []int
	Affected      []TenantRecovery // sorted by tenant ID
	Relocated     int
	Degraded      int
	Evicted       int
}

// Render writes the report as a fixed-format table (deterministic:
// rows sorted by tenant ID, no wall-clock content).
func (r *RecoveryReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: %d affected after failing servers %v (%d relocated, %d degraded, %d evicted)\n",
		len(r.Affected), r.FailedServers, r.Relocated, r.Degraded, r.Evicted)
	fmt.Fprintf(&b, "%-8s %-10s %-9s %-20s %-20s %s\n",
		"tenant", "name", "verdict", "servers", "guarantee", "note")
	for _, tr := range r.Affected {
		servers := fmt.Sprintf("%v", tr.OldServers)
		if tr.Verdict != VerdictEvicted {
			servers = fmt.Sprintf("%v->%v", tr.OldServers, tr.NewServers)
		}
		g := "-"
		if tr.Verdict != VerdictEvicted {
			g = guaranteeLabel(tr.NewGuarantee)
		}
		note := tr.Degradation
		if note == "" {
			note = "-"
		}
		fmt.Fprintf(&b, "%-8d %-10s %-9s %-20s %-20s %s\n",
			tr.ID, tr.Name, tr.Verdict, servers, g, note)
	}
	return b.String()
}

func guaranteeLabel(g tenant.Guarantee) string {
	d := "no-d"
	if g.DelayBound > 0 {
		d = fmt.Sprintf("d=%gus", g.DelayBound*1e6)
	}
	return fmt.Sprintf("B=%gMbps %s", g.BandwidthBps*8/1e6, d)
}

// FailServers marks servers as failed: their free slots disappear from
// the slot index so no placement (initial or recovery) lands VMs
// there. Tenants already on them are untouched — call Recover to
// evacuate. A log failure (ErrLogFailed) leaves the servers as they
// were.
func (m *Manager) FailServers(servers ...int) error {
	if len(servers) == 0 {
		return nil
	}
	return m.commit(&Mutation{Op: MutFail, Servers: servers})
}

// RestoreServers returns failed servers to the placeable pool; a log
// failure (ErrLogFailed) leaves them failed.
func (m *Manager) RestoreServers(servers ...int) error {
	if len(servers) == 0 {
		return nil
	}
	return m.commit(&Mutation{Op: MutRestore, Servers: servers})
}

// ServerFailed reports whether server s is currently marked failed.
func (m *Manager) ServerFailed(s int) bool { return m.ix.isDisabled(s) }

// AdmittedIDs returns the admitted tenant IDs in ascending order.
func (m *Manager) AdmittedIDs() []int {
	ids := make([]int, 0, len(m.admitted))
	for id := range m.admitted {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Recover is the guarantee-preserving failure-recovery path. Given the
// servers and directed ports a fault took out, it (1) identifies every
// admitted tenant with a VM on a failed server or a contribution on a
// failed port, (2) detaches them all — freeing slots and subtracting
// the exact port contributions Place added, via the incremental Remove
// state — (3) marks the failed servers unplaceable, and (4) re-admits
// each tenant in ascending ID order through normal admission control,
// so every re-placement is re-proven by the same network calculus as
// the original. A tenant that no longer fits with its original
// guarantee walks the degradation ladder; if even the loosest rung is
// infeasible it is evicted. The per-tenant verdict (Relocated /
// Degraded / Evicted) is always explicit — no tenant is silently
// dropped or silently weakened.
//
// The manager's invariants hold on return (VerifyInvariants passes):
// detach-then-readmit keeps port state exact at every step. If the
// commit log fails, Recover aborts with ErrLogFailed and the partial
// report: every mutation applied was logged first, so the manager is
// exactly what a crash-recovery from the log would reproduce, and
// tenants not yet processed keep their pre-failure placements.
func (m *Manager) Recover(failedServers, failedPorts []int) (*RecoveryReport, error) {
	return m.recoverWith(m.Place, failedServers, failedPorts)
}

// recoverWith is Recover with every re-admission decided by place.
func (m *Manager) recoverWith(place func(tenant.Spec) (*tenant.Placement, error),
	failedServers, failedPorts []int) (*RecoveryReport, error) {
	failed := make(map[int]bool, len(failedServers))
	for _, s := range failedServers {
		failed[s] = true
	}

	// Identify affected tenants.
	var ids []int
	for id, at := range m.admitted {
		affected := false
		for _, s := range at.placement.Servers {
			if failed[s] {
				affected = true
				break
			}
		}
		if !affected {
			for _, pid := range failedPorts {
				if at.crosses(pid) {
					affected = true
					break
				}
			}
		}
		if affected {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)

	ladder := degradeLadder()

	report := &RecoveryReport{
		FailedServers: append([]int(nil), failedServers...),
		FailedPorts:   append([]int(nil), failedPorts...),
	}
	sort.Ints(report.FailedServers)
	sort.Ints(report.FailedPorts)

	// Detach all affected tenants before re-admitting any: evacuation
	// frees the shared headroom first, so re-placements compete only
	// with surviving tenants, not with each other's stale state. Each
	// detach is logged as a primitive remove so replay reproduces the
	// recovery step by step.
	old := make([]*tenant.Placement, len(ids))
	for i, id := range ids {
		old[i] = m.admitted[id].placement
		if err := m.commit(&Mutation{Op: MutRemove, TenantID: id}); err != nil {
			return report, err
		}
	}
	if err := m.FailServers(failedServers...); err != nil {
		return report, err
	}

	for i, id := range ids {
		spec := old[i].Spec
		tr := TenantRecovery{
			ID:           id,
			Name:         spec.Name,
			OldServers:   old[i].Servers,
			OldGuarantee: spec.Guarantee,
		}
		if pl, err := place(spec); err == nil {
			tr.Verdict = VerdictRelocated
			tr.NewServers = pl.Servers
			tr.NewGuarantee = spec.Guarantee
			report.Relocated++
		} else if errors.Is(err, ErrLogFailed) {
			// The commit log is down, not the placement infeasible:
			// abort rather than walk the ladder (a rung record after a
			// failed full-guarantee append could replay as a silent
			// double-degrade).
			return report, err
		} else {
			tr.Verdict = VerdictEvicted
			tried := spec.Guarantee
			for _, step := range ladder {
				dspec := degradeSpec(spec, step)
				if dspec.Guarantee == tried {
					continue // rung changes nothing (e.g. d already 0)
				}
				tried = dspec.Guarantee
				if pl, err := place(dspec); err == nil {
					tr.Verdict = VerdictDegraded
					tr.NewServers = pl.Servers
					tr.NewGuarantee = dspec.Guarantee
					tr.Degradation = step.Note
					break
				} else if errors.Is(err, ErrLogFailed) {
					return report, err
				}
			}
			if tr.Verdict == VerdictDegraded {
				report.Degraded++
			} else {
				report.Evicted++
			}
		}
		report.Affected = append(report.Affected, tr)
	}
	return report, nil
}

// degradeSpec applies one ladder rung to a tenant spec's guarantee.
func degradeSpec(spec tenant.Spec, step DegradeStep) tenant.Spec {
	g := spec.Guarantee
	if g.DelayBound > 0 {
		g.DelayBound *= step.DelayFactor // factor 0 drops the bound
	}
	if step.BandwidthFactor > 0 {
		g.BandwidthBps *= step.BandwidthFactor
	}
	// Keep the peak-rate cap consistent: Validate requires Bmax >= B,
	// which shrinking B preserves.
	spec.Guarantee = g
	return spec
}
