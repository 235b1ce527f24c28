package placement

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

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

// DefaultDegradeLadder is the rung sequence Recover tries, strictest
// first, when re-admission with the original guarantee fails: first
// trade delay, then bandwidth, then the delay bound entirely. Burst
// allowance S is never touched — it is what keeps short messages
// cheap, and shrinking it saves almost no fabric capacity.
func DefaultDegradeLadder() []DegradeStep {
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
	// LogErr is non-nil when the commit log failed mid-recovery and the
	// walk was aborted. Every mutation applied in memory was logged
	// first (write-ahead order), so the manager remains exactly the
	// state a crash-recovery from the log would reproduce; tenants not
	// yet processed keep their pre-failure placements.
	LogErr error
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

// RecoverOptions tunes a Recover call; the zero value uses the
// default degradation ladder.
type RecoverOptions struct {
	// Ladder overrides DefaultDegradeLadder. An explicit empty,
	// non-nil ladder disables degradation (relocate-or-evict).
	Ladder []DegradeStep
}

// FailServers marks servers as failed: their free slots disappear from
// the slot index so no placement (initial or recovery) lands VMs
// there. Tenants already on them are untouched — call Recover to
// evacuate.
func (m *Manager) FailServers(servers ...int) {
	if len(servers) > 0 {
		if err := m.logMutation(&Mutation{Op: MutFail, Servers: servers}); err != nil {
			if m.hookErr == nil {
				m.hookErr = err
			}
			return
		}
	}
	for _, s := range servers {
		if s >= 0 && s < m.tree.Servers() {
			m.ix.disable(s)
		}
	}
}

// RestoreServers returns failed servers to the placeable pool.
func (m *Manager) RestoreServers(servers ...int) {
	if len(servers) > 0 {
		if err := m.logMutation(&Mutation{Op: MutRestore, Servers: servers}); err != nil {
			if m.hookErr == nil {
				m.hookErr = err
			}
			return
		}
	}
	for _, s := range servers {
		if s >= 0 && s < m.tree.Servers() {
			m.ix.enable(s)
			// Slots freed while the server was down came back just now.
			m.snapResources(s)
		}
	}
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

// RecoverHost evacuates and re-admits every tenant affected by the
// failure of one server.
func (m *Manager) RecoverHost(server int) *RecoveryReport {
	return m.Recover([]int{server}, nil, RecoverOptions{})
}

// RecoverPort evacuates and re-admits every tenant whose admitted
// contribution crosses the failed directed port.
func (m *Manager) RecoverPort(pid int) *RecoveryReport {
	return m.Recover(nil, []int{pid}, RecoverOptions{})
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
// detach-then-readmit keeps port state exact at every step.
func (m *Manager) Recover(failedServers, failedPorts []int, opts RecoverOptions) *RecoveryReport {
	var start time.Time
	if m.mx != nil {
		start = time.Now()
	}

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
				if _, ok := at.contribs[pid]; ok {
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

	ladder := opts.Ladder
	if ladder == nil {
		ladder = DefaultDegradeLadder()
	}

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
	old := make([]*admittedTenant, len(ids))
	for i, id := range ids {
		old[i] = m.admitted[id]
		if err := m.logMutation(&Mutation{Op: MutRemove, TenantID: id}); err != nil {
			report.LogErr = err
			return report
		}
		m.detach(old[i])
	}
	m.FailServers(failedServers...)
	if m.hookErr != nil {
		report.LogErr = m.hookErr
		return report
	}

	for i, id := range ids {
		spec := old[i].placement.Spec
		tr := TenantRecovery{
			ID:           id,
			Name:         spec.Name,
			OldServers:   old[i].placement.Servers,
			OldGuarantee: spec.Guarantee,
		}
		if pl, err := m.place(spec); err == nil {
			tr.Verdict = VerdictRelocated
			tr.NewServers = pl.Servers
			tr.NewGuarantee = spec.Guarantee
			report.Relocated++
		} else if errors.Is(err, ErrLogFailed) {
			// The commit log is down, not the placement infeasible:
			// abort rather than walk the ladder (a rung record after a
			// failed full-guarantee append could replay as a silent
			// double-degrade).
			report.LogErr = err
			return report
		} else {
			tr.Verdict = VerdictEvicted
			tried := spec.Guarantee
			for _, step := range ladder {
				dspec := degradeSpec(spec, step)
				if dspec.Guarantee == tried {
					continue // rung changes nothing (e.g. d already 0)
				}
				tried = dspec.Guarantee
				if pl, err := m.place(dspec); err == nil {
					tr.Verdict = VerdictDegraded
					tr.NewServers = pl.Servers
					tr.NewGuarantee = dspec.Guarantee
					tr.Degradation = step.Note
					break
				} else if errors.Is(err, ErrLogFailed) {
					report.LogErr = err
					return report
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
	if m.mx != nil {
		m.mx.noteRecover(time.Since(start), report)
	}
	return report
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
