package durable

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/tenant"
)

// Manager is a crash-safe placement manager: the embedded
// placement.Manager carries a commit hook that write-ahead logs every
// mutation, and this wrapper adds the snapshot cadence, safe-mode
// admission gating and the flush/close lifecycle. Read accessors
// (QueueBound, Placement, VerifyInvariants, ...) come straight from
// the embedded manager.
type Manager struct {
	*placement.Manager
	st *store
}

// Place admits a tenant, logging the decision before applying it. In
// safe mode (recovery found a seq gap, so the admitted set may be
// incomplete) every request is refused — a manager that cannot prove
// what it already admitted must not admit more. Removes and failure
// handling still work.
func (d *Manager) Place(spec tenant.Spec) (*tenant.Placement, error) {
	if d.st.safeMode {
		return nil, fmt.Errorf("durable: manager in safe mode, admissions disabled (tenant %d)", spec.ID)
	}
	pl, err := d.Manager.Place(spec)
	d.maybeSnapshot()
	return pl, err
}

// Remove releases a tenant (logged write-ahead).
func (d *Manager) Remove(id int) error {
	err := d.Manager.Remove(id)
	d.maybeSnapshot()
	return err
}

// Recover runs the guarantee-preserving recovery path; every detach,
// server failure and (possibly degraded) re-placement it performs is
// logged as its own record, so a crash mid-recovery replays to the
// exact prefix that was applied.
func (d *Manager) Recover(failedServers, failedPorts []int) (*placement.RecoveryReport, error) {
	r, err := d.Manager.Recover(failedServers, failedPorts)
	d.maybeSnapshot()
	return r, err
}

// RestoreServers returns servers to the placeable pool (logged
// write-ahead).
func (d *Manager) RestoreServers(servers ...int) error {
	err := d.Manager.RestoreServers(servers...)
	d.maybeSnapshot()
	return err
}

// maybeSnapshot keeps the snapshot cadence. A store in safe mode takes
// no snapshot: its GC would delete the corrupt snapshot that holds the
// store in safe mode, and the next Open would forget what it lost.
func (d *Manager) maybeSnapshot() {
	if !d.st.safeMode && d.st.opts.SnapshotEvery > 0 && d.st.sinceSnap >= d.st.opts.SnapshotEvery {
		// A failed snapshot is not fatal: the WAL still has every
		// record, the next mutation retries the cadence.
		_ = d.st.snapshot(d.Manager)
	}
}

// Close flushes and closes the WAL. Further mutations fail.
func (d *Manager) Close() error {
	if d.st.closed {
		return nil
	}
	d.st.closed = true
	return d.st.w.close()
}

// Seq returns the last logged mutation sequence number.
func (d *Manager) Seq() uint64 { return d.st.seq }

// WALSize returns the current segment's valid byte length.
func (d *Manager) WALSize() int64 { return d.st.w.size }

// WALPath returns the current segment's path.
func (d *Manager) WALPath() string { return d.st.w.path }

// Dir returns the store directory.
func (d *Manager) Dir() string { return d.st.dir }

// SafeMode reports whether recovery gated admissions.
func (d *Manager) SafeMode() bool { return d.st.safeMode }

// SetAppendObserver installs a test seam called after every record
// lands in the log file and before its mutation is applied in memory —
// the exact instant a crash-point test wants to capture or abort at.
// The observer must not mutate the manager.
func (d *Manager) SetAppendObserver(fn func(rec Record)) { d.st.afterAppend = fn }

// InjectAppendFailures makes the next n WAL record writes fail before
// touching the file (testing the retry and abort paths).
func (d *Manager) InjectAppendFailures(n int) { d.st.w.failAppends = n }

// InjectSyncFailures makes the next n fsyncs fail (testing retry).
func (d *Manager) InjectSyncFailures(n int) { d.st.w.failSyncs = n }
