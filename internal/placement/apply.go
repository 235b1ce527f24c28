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
// Every state change the manager makes decomposes into these primitive
// ops — Recover, for instance, is a sequence of removes, a fail, and
// (possibly degraded) placements — so a log of Mutations replayed in
// order through the Apply* primitives reproduces the manager exactly.
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
// with ErrLogFailed. A nil fn detaches the hook (the replay path runs
// with it detached so recovery does not re-log its own records).
func (m *Manager) SetCommitHook(fn func(*Mutation) error) { m.hook = fn }

// CommitHookErr returns the first error a commit-hook call returned
// from a void mutator (FailServers/RestoreServers, which cannot
// propagate it), or nil. Sticky until ClearCommitHookErr.
func (m *Manager) CommitHookErr() error { return m.hookErr }

// ClearCommitHookErr resets the sticky void-mutator hook error.
func (m *Manager) ClearCommitHookErr() { m.hookErr = nil }

// logMutation runs the commit hook for mut, wrapping failures in
// ErrLogFailed. Nil-hook managers pay one branch.
func (m *Manager) logMutation(mut *Mutation) error {
	if m.hook == nil {
		return nil
	}
	if err := m.hook(mut); err != nil {
		return fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	return nil
}

// ApplyPlacement commits a previously decided placement without
// re-running the admission search: it is the replay counterpart of the
// accept tail of Place. The contribution a placement makes at each
// port is a pure function of (spec, servers, tree, options), and adds
// to a given port happen in tenant commit order on both the live and
// the replay path, so replaying a logged MutPlace stream reproduces
// port state bit-for-bit. The commit hook is NOT fired — this is how
// logged records re-enter the manager.
func (m *Manager) ApplyPlacement(spec tenant.Spec, servers []int) (*tenant.Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.admitted[spec.ID]; dup {
		return nil, fmt.Errorf("placement: tenant %d already admitted", spec.ID)
	}
	if len(servers) != spec.VMs {
		return nil, fmt.Errorf("placement: tenant %d: %d servers for %d VMs", spec.ID, len(servers), spec.VMs)
	}
	for _, s := range servers {
		if s < 0 || s >= m.tree.Servers() {
			return nil, fmt.Errorf("placement: tenant %d: server %d out of range", spec.ID, s)
		}
	}
	pl := &tenant.Placement{Spec: spec, Servers: append([]int(nil), servers...)}
	var contribs map[int]contribution
	if spec.Class == tenant.ClassBestEffort {
		contribs = map[int]contribution{}
	} else {
		contribs = m.contributions(&spec, pl.Servers)
		for pid, c := range contribs {
			m.ports[pid].add(c)
			m.portTouched(pid)
		}
	}
	for _, s := range pl.Servers {
		m.takeSlot(s, &spec)
	}
	m.admitted[spec.ID] = &admittedTenant{placement: pl, contribs: contribs}
	m.acceptedCount++
	return pl, nil
}

// NoteRejected replays a logged MutReject: it increments the rejection
// counter without running admission.
func (m *Manager) NoteRejected() { m.rejectedCount++ }

// SetAdmissionCounters overrides the cumulative accept/reject counters.
// Snapshot restore uses it: rebuilding the admitted set via
// ApplyPlacement counts only the survivors, while the snapshot carries
// the true cumulative history.
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
