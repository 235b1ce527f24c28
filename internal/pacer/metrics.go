package pacer

import (
	"strconv"

	"repro/internal/obs"
)

// VMMetrics instruments one VM's token-bucket chain. All observation
// methods are nil-safe: an uninstrumented VM (mx == nil) pays exactly
// one branch per event and allocates nothing, so pacing hot paths can
// call them unconditionally.
//
// Metric names (labels vm="<id>", tenant="<id>"):
//
//	silo_pacer_delay_us            histogram of pacing delay: commit
//	                               release minus enqueue time
//	silo_pacer_curve_delayed_total packets the buckets pushed past
//	                               their enqueue time (the VM offered
//	                               more than its arrival curve B·t+S
//	                               admits; each is a would-be guarantee
//	                               violation the pacer averted)
//	silo_pacer_committed_total     packets committed through the chain
//	silo_pacer_queued_bytes        bytes awaiting tokens right now
//	silo_pacer_queued_bytes_hwm    high-water mark of the above
type VMMetrics struct {
	PacingDelayUs *obs.Histogram
	CurveDelayed  *obs.Counter
	Committed     *obs.Counter
	QueuedBytes   *obs.Gauge
	QueuedHWM     *obs.Gauge

	// Audit, if set, routes curve-delayed packets into the tenant's
	// guarantee audit (silo_audit_curve_delayed_total).
	Audit *obs.TenantAudit
}

// NewVMMetrics registers the per-VM pacer metrics, labelled with both
// the VM and its owning tenant — the tenant label is what lets the
// SLO dashboard and per-tenant burn-rate queries aggregate a tenant's
// VMs without a join table. A nil registry returns nil, which disables
// instrumentation on the VM it is attached to.
func NewVMMetrics(reg *obs.Registry, vmID, tenantID int) *VMMetrics {
	if reg == nil {
		return nil
	}
	l := strconv.Itoa(vmID)
	tn := strconv.Itoa(tenantID)
	return &VMMetrics{
		PacingDelayUs: reg.Histogram("silo_pacer_delay_us",
			"pacing delay from enqueue to committed release (µs)", "vm", l, "tenant", tn),
		CurveDelayed: reg.Counter("silo_pacer_curve_delayed_total",
			"packets delayed by the token buckets to keep the arrival curve conformant", "vm", l, "tenant", tn),
		Committed: reg.Counter("silo_pacer_committed_total",
			"packets committed through the token-bucket chain", "vm", l, "tenant", tn),
		QueuedBytes: reg.Gauge("silo_pacer_queued_bytes",
			"bytes awaiting tokens in the VM's destination queues", "vm", l, "tenant", tn),
		QueuedHWM: reg.Gauge("silo_pacer_queued_bytes_hwm",
			"high-water mark of bytes awaiting tokens", "vm", l, "tenant", tn),
	}
}

// noteQueued records the backlog after an enqueue.
func (m *VMMetrics) noteQueued(totalBytes int64) {
	if m == nil {
		return
	}
	m.QueuedBytes.Set(totalBytes)
	m.QueuedHWM.SetMax(totalBytes)
}

// noteCommit records one packet, enqueued at enq, leaving the bucket
// chain.
func (m *VMMetrics) noteCommit(enq, release, totalBytes int64) {
	if m == nil {
		return
	}
	m.Committed.Inc()
	m.QueuedBytes.Set(totalBytes)
	m.PacingDelayUs.Observe((release - enq) / 1000)
	if release > enq {
		m.CurveDelayed.Inc()
		if m.Audit != nil {
			m.Audit.CurveDelayed.Inc()
		}
	}
}

// BatchMetrics instruments Paced IO Batching. One instance is shared
// by every NIC batcher in a run (void overhead is a fabric-wide
// quantity, Figure 10), so there is no per-host label. All methods are
// nil-safe.
//
// Metric names:
//
//	silo_pacer_batches_total      non-empty batches built
//	silo_pacer_data_bytes_total   data bytes laid on the wire
//	silo_pacer_void_bytes_total   void (spacer) bytes laid on the wire
//	silo_pacer_data_frames_total  data frames batched
//	silo_pacer_void_frames_total  void frames synthesized
//
// Void overhead is void_bytes / (void_bytes + data_bytes).
type BatchMetrics struct {
	Batches    *obs.Counter
	DataBytes  *obs.Counter
	VoidBytes  *obs.Counter
	DataFrames *obs.Counter
	VoidFrames *obs.Counter
}

// NewBatchMetrics registers the batching metrics. A nil registry
// returns nil.
func NewBatchMetrics(reg *obs.Registry) *BatchMetrics {
	if reg == nil {
		return nil
	}
	return &BatchMetrics{
		Batches: reg.Counter("silo_pacer_batches_total",
			"non-empty NIC batches built"),
		DataBytes: reg.Counter("silo_pacer_data_bytes_total",
			"data bytes laid on the wire by the batcher"),
		VoidBytes: reg.Counter("silo_pacer_void_bytes_total",
			"void (spacer) bytes laid on the wire by the batcher"),
		DataFrames: reg.Counter("silo_pacer_data_frames_total",
			"data frames batched"),
		VoidFrames: reg.Counter("silo_pacer_void_frames_total",
			"void frames synthesized"),
	}
}

// noteBatch records one built batch.
func (m *BatchMetrics) noteBatch(b *Batch) {
	if m == nil || len(b.Packets) == 0 {
		return
	}
	m.Batches.Inc()
	m.DataBytes.Add(int64(b.DataBytes))
	m.VoidBytes.Add(int64(b.VoidBytes))
	for i := range b.Packets {
		if b.Packets[i].Void {
			m.VoidFrames.Inc()
		} else {
			m.DataFrames.Inc()
		}
	}
}
