package placement

import (
	"errors"
	"fmt"

	"repro/internal/tenant"
)

// ErrLogFailed reports that the commit hook (the durability layer's
// write-ahead append) failed, so the mutation was NOT applied. Callers
// must distinguish it from admission infeasibility: a rejected request
// may be retried with a looser guarantee, a log failure must not be.
var ErrLogFailed = errors.New("placement: commit log append failed")

// MutationOp enumerates the control-plane mutations a Manager applies.
// Every state change the manager makes is one of these primitive ops —
// Recover, for instance, is a sequence of removes, a fail, and
// (possibly degraded) placements — so a log of Mutations replayed in
// order through Apply reproduces the manager exactly.
type MutationOp uint8

// Mutation ops.
const (
	// MutPlace admits a tenant onto an explicit server list (the one
	// the admission search chose).
	MutPlace MutationOp = iota + 1
	// MutReject records a rejected request (counter-only; keeps
	// Accepted/Rejected exact across replay).
	MutReject
	// MutRemove releases an admitted tenant.
	MutRemove
	// MutFail marks servers failed (slots hidden from placement).
	MutFail
	// MutRestore returns failed servers to the placeable pool.
	MutRestore
)

// String names the op.
func (op MutationOp) String() string {
	switch op {
	case MutPlace:
		return "place"
	case MutReject:
		return "reject"
	case MutRemove:
		return "remove"
	case MutFail:
		return "fail"
	case MutRestore:
		return "restore"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Mutation is one primitive control-plane state change, in the form the
// durability layer logs and the recovery path replays.
type Mutation struct {
	Op MutationOp
	// Spec is the admitted spec (MutPlace only) — possibly a degraded
	// variant of the original request when the recovery ladder admitted
	// it at a looser rung.
	Spec tenant.Spec
	// Servers is the chosen server per VM (MutPlace) or the affected
	// server set (MutFail/MutRestore).
	Servers []int
	// TenantID identifies the tenant for MutRemove and MutReject.
	TenantID int
}

// SetCommitHook installs fn to be called with every mutation BEFORE it
// is applied to manager state (write-ahead ordering). If fn returns an
// error the mutation is not applied and the calling operation fails
// with ErrLogFailed. A nil fn detaches the hook. Apply never fires it,
// so replaying logged records does not re-log them.
func (m *Manager) SetCommitHook(fn func(*Mutation) error) { m.hook = fn }

// logMutation runs the commit hook for mut, wrapping failures in
// ErrLogFailed. Nil-hook managers pay one branch. The hook gets a heap
// copy, so mut itself never escapes: callers build it on the stack and
// only a manager with a hook pays for the copy.
func (m *Manager) logMutation(mut *Mutation) error {
	if m.hook == nil {
		return nil
	}
	cp := *mut
	if err := m.hook(&cp); err != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, err)
	}
	return nil
}

// commit is the live path of every mutation but admission's (settle,
// which journals between the two steps): log it, then apply it.
func (m *Manager) commit(mut *Mutation) error {
	if err := m.logMutation(mut); err != nil {
		return err
	}
	m.apply(mut)
	return nil
}

// Apply applies a logged mutation without firing the commit hook: it
// is how replay re-enters the manager. A MutPlace is checked as
// admission would (valid spec, new ID, one in-range server per VM) but
// not re-searched; its contribution at each port is a pure function of
// (spec, servers, tree, options), and adds to a given port happen in
// commit order on both the live and the replay path, so replaying a
// logged stream reproduces port state bit for bit. The placement keeps
// mut.Servers. A MutRemove of an unknown tenant is an error.
func (m *Manager) Apply(mut *Mutation) error {
	switch mut.Op {
	case MutPlace:
		spec := &mut.Spec
		if err := spec.Validate(); err != nil {
			return err
		}
		if _, dup := m.admitted[spec.ID]; dup {
			return fmt.Errorf("placement: tenant %d already admitted", spec.ID)
		}
		if len(mut.Servers) != spec.VMs {
			return fmt.Errorf("placement: tenant %d: %d servers for %d VMs", spec.ID, len(mut.Servers), spec.VMs)
		}
		for _, s := range mut.Servers {
			if s < 0 || s >= m.tree.Servers() {
				return fmt.Errorf("placement: tenant %d: server %d out of range", spec.ID, s)
			}
		}
	case MutRemove:
		if _, ok := m.admitted[mut.TenantID]; !ok {
			return fmt.Errorf("placement: unknown tenant: id %d", mut.TenantID)
		}
	case MutReject, MutFail, MutRestore:
	default:
		return fmt.Errorf("placement: unknown mutation op %d", uint8(mut.Op))
	}
	m.apply(mut)
	return nil
}

// apply makes the state change mut describes, unchecked: the live
// callers have decided it is valid, Apply has checked it. It returns
// the new placement of a MutPlace.
func (m *Manager) apply(mut *Mutation) *tenant.Placement {
	switch mut.Op {
	case MutPlace:
		pl := &tenant.Placement{Spec: mut.Spec, Servers: mut.Servers}
		spec := &pl.Spec
		var contribs []portContribution
		if spec.Class != tenant.ClassBestEffort {
			contribs = m.contributions(spec, pl.Servers)
			for _, pc := range contribs {
				st, _ := m.ports.at(pc.pid)
				st.add(pc.contribution)
				m.portTouched(pc.pid)
			}
		}
		for _, s := range pl.Servers {
			m.ix.take(s)
		}
		m.admitted[spec.ID] = &admittedTenant{placement: pl, contribs: contribs}
		m.acceptedCount++
		return pl
	case MutReject:
		m.rejectedCount++
	case MutRemove:
		at := m.admitted[mut.TenantID]
		for _, pc := range at.contribs {
			st, _ := m.ports.at(pc.pid)
			st.remove(pc.contribution)
			m.portTouched(pc.pid)
		}
		for _, s := range at.placement.Servers {
			m.ix.free(s)
		}
		delete(m.admitted, mut.TenantID)
	case MutFail:
		for _, s := range mut.Servers {
			if s >= 0 && s < m.tree.Servers() {
				m.ix.disable(s)
			}
		}
	case MutRestore:
		for _, s := range mut.Servers {
			if s >= 0 && s < m.tree.Servers() {
				m.ix.enable(s)
			}
		}
	}
	return nil
}

// SetAdmissionCounters overrides the cumulative accept/reject counters.
// Snapshot restore uses it: rebuilding the admitted set through Apply
// counts only the survivors, while the snapshot carries the true
// cumulative history.
func (m *Manager) SetAdmissionCounters(accepted, rejected int) {
	m.acceptedCount = accepted
	m.rejectedCount = rejected
}

// FailedServerIDs returns the currently failed servers in ascending
// order (the set FailServers disabled and RestoreServers has not yet
// re-enabled).
func (m *Manager) FailedServerIDs() []int {
	if m.ix.disabled == nil {
		return nil
	}
	var out []int
	for s, d := range m.ix.disabled {
		if d {
			out = append(out, s)
		}
	}
	return out
}
