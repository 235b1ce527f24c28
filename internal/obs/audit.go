package obs

import (
	"fmt"
	"sort"
	"strings"
)

// GuaranteeAuditor cross-references live measurements against the
// {B, S, d} triples admission control granted. It is the runtime
// counterpart of the placement manager's admission math: placement
// proves the guarantee holds in the worst case; the auditor verifies
// the running system never contradicts the proof.
//
// Per admitted tenant it tracks:
//
//   - a NIC-to-NIC delay histogram (microsecond power-of-two buckets),
//   - the exact maximum observed delay in nanoseconds,
//   - a violation counter: packets whose delay exceeded the admitted
//     bound d (always zero if Silo is correct),
//   - an arrival-curve conformance counter fed by the pacer: packets
//     the token buckets had to delay because the VM offered more than
//     B·t + S (each is a would-be violation the pacer averted).
//
// The auditor is driven from the simulation goroutine; ObserveDelay is
// a map lookup and metric updates, with no allocation. The auditor
// works with or without a Registry: metrics registration is skipped
// when reg is nil, while the audit itself (violation counting, Summary)
// still runs — this is what lets every silo-sim run double as an audit
// even with -metrics unset. A nil *GuaranteeAuditor disables everything
// at one branch per call.
type GuaranteeAuditor struct {
	reg     *Registry
	tenants map[int]*TenantAudit
	// tap receives one ViolationEvent per over-bound delivery.
	tap func(ViolationEvent)
}

// TenantAudit is the live audit state for one admitted tenant.
type TenantAudit struct {
	ID int
	// Admitted guarantee: B (bytes/sec), S (bytes), d (ns; 0 = no
	// delay bound, delay is tracked but never a violation).
	BandwidthBps float64
	BurstBytes   float64
	DelayBoundNs int64

	// DelayUs is the per-tenant NIC-to-NIC delay histogram in µs.
	DelayUs *Histogram
	// Violations counts packets over the admitted delay bound.
	Violations *Counter
	// CurveDelayed counts packets the pacer delayed to keep the
	// tenant's arrival curve conformant (offered load exceeded {B,S}).
	CurveDelayed *Counter
	// MaxDelayNs tracks the exact worst delay in nanoseconds.
	MaxDelayNs *Gauge
	// Packets counts audited packets.
	Packets *Counter
}

// NewGuaranteeAuditor returns an auditor. reg may be nil: the audit
// still runs, it is just not exported through a registry.
func NewGuaranteeAuditor(reg *Registry) *GuaranteeAuditor {
	return &GuaranteeAuditor{reg: reg, tenants: make(map[int]*TenantAudit)}
}

// Admit registers a tenant's guarantee for auditing. delayBoundSec is
// the admitted NIC-to-NIC bound d in seconds (<= 0 means the tenant
// has no delay SLO; its delay distribution is still recorded).
// Admitting the same tenant twice returns the existing state.
func (a *GuaranteeAuditor) Admit(id int, bandwidthBps, burstBytes, delayBoundSec float64) *TenantAudit {
	if a == nil {
		return nil
	}
	if t, ok := a.tenants[id]; ok {
		return t
	}
	label := fmt.Sprintf("%d", id)
	var boundNs int64
	if delayBoundSec > 0 {
		boundNs = int64(delayBoundSec * 1e9)
	}
	t := &TenantAudit{
		ID:           id,
		BandwidthBps: bandwidthBps,
		BurstBytes:   burstBytes,
		DelayBoundNs: boundNs,
	}
	if a.reg != nil {
		t.DelayUs = a.reg.Histogram("silo_audit_delay_us",
			"per-tenant NIC-to-NIC packet delay (µs, power-of-two buckets)", "tenant", label)
		t.Violations = a.reg.Counter("silo_audit_delay_violations_total",
			"packets whose NIC-to-NIC delay exceeded the admitted bound d", "tenant", label)
		t.CurveDelayed = a.reg.Counter("silo_audit_curve_delayed_total",
			"packets delayed by the pacer to keep the arrival curve within {B,S}", "tenant", label)
		t.MaxDelayNs = a.reg.Gauge("silo_audit_max_delay_ns",
			"exact worst observed NIC-to-NIC delay", "tenant", label)
		t.Packets = a.reg.Counter("silo_audit_packets_total",
			"packets audited for the tenant", "tenant", label)
		a.reg.Gauge("silo_audit_delay_bound_ns",
			"admitted NIC-to-NIC delay bound d (0 = none)", "tenant", label).Set(boundNs)
	} else {
		// No registry: allocate standalone metrics so the audit and
		// Summary still work.
		t.DelayUs = &Histogram{}
		t.Violations = &Counter{}
		t.CurveDelayed = &Counter{}
		t.MaxDelayNs = &Gauge{}
		t.Packets = &Counter{}
	}
	a.tenants[id] = t
	return t
}

// SetDelayBound updates an admitted tenant's audited bound d (in
// seconds; <= 0 clears it). Failure recovery uses it when a tenant is
// re-admitted degraded: packets delivered after the update are judged
// against the loosened bound. Unknown tenants are ignored.
//
// The TenantAudit is edited in place, so every holder of it — the SLO
// recorder's tenant list included — sees the new bound from the next
// packet or window on.
func (a *GuaranteeAuditor) SetDelayBound(id int, delayBoundSec float64) {
	if a == nil {
		return
	}
	t, ok := a.tenants[id]
	if !ok {
		return
	}
	t.DelayBoundNs = 0
	if delayBoundSec > 0 {
		t.DelayBoundNs = int64(delayBoundSec * 1e9)
	}
}

// Tenant returns the audit state for a tenant, if admitted.
func (a *GuaranteeAuditor) Tenant(id int) (*TenantAudit, bool) {
	if a == nil {
		return nil, false
	}
	t, ok := a.tenants[id]
	return t, ok
}

// SetViolationTap installs a callback invoked once per delay-bound
// violation with the unified ViolationEvent record (the single stream
// the incident engine consumes). fn must not allocate if the
// observation path is to stay allocation-free; ViolationLog.Observe
// qualifies. nil clears the tap.
func (a *GuaranteeAuditor) SetViolationTap(fn func(ViolationEvent)) {
	if a == nil {
		return
	}
	a.tap = fn
}

// ObserveDelay records one packet's NIC-to-NIC delay for a tenant.
// Unknown tenants are ignored. Zero allocations. Thin wrapper over
// ObserveDelivery for callers without packet context.
func (a *GuaranteeAuditor) ObserveDelay(id int, delayNs int64) {
	a.ObserveDelivery(id, -1, -1, 0, delayNs)
}

// ObserveDelivery records one delivered packet's NIC-to-NIC delay for
// a tenant, with the packet's endpoints and delivery time so a
// violation tap can emit a fully-identified ViolationEvent. dstVM and
// srcVM may be -1 and nowNs 0 when unknown. Unknown tenants are
// ignored. Zero allocations.
func (a *GuaranteeAuditor) ObserveDelivery(id, dstVM, srcVM int, nowNs, delayNs int64) {
	if a == nil {
		return
	}
	t, ok := a.tenants[id]
	if !ok {
		return
	}
	t.Packets.Inc()
	t.DelayUs.Observe(delayNs / 1000)
	t.MaxDelayNs.SetMax(delayNs)
	if t.DelayBoundNs > 0 && delayNs > t.DelayBoundNs {
		t.Violations.Inc()
		if a.tap != nil {
			a.tap(ViolationEvent{
				TimeNs:      nowNs,
				Source:      SourceDelivery,
				Tenant:      id,
				VM:          dstVM,
				SrcVM:       srcVM,
				DelayNs:     delayNs,
				BoundNs:     t.DelayBoundNs,
				Count:       1,
				CulpritPort: -1,
			})
		}
	}
}

// NumTenants returns the number of admitted tenants without
// allocating (the SLO recorder polls it every window to decide whether
// its cached tenant list is stale).
func (a *GuaranteeAuditor) NumTenants() int {
	if a == nil {
		return 0
	}
	return len(a.tenants)
}

// Tenants returns the admitted tenants sorted by ID.
func (a *GuaranteeAuditor) Tenants() []*TenantAudit {
	if a == nil {
		return nil
	}
	out := make([]*TenantAudit, 0, len(a.tenants))
	for _, t := range a.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Summary renders the one-line guarantee audit: per delay-bounded
// tenant, packets observed, worst delay vs the bound, and the
// violation count. Tenants without a bound are folded into a trailing
// unbounded tally.
func (a *GuaranteeAuditor) Summary() string {
	if a == nil {
		return "guarantee audit: disabled"
	}
	var parts []string
	var unboundedPkts int64
	unbounded := 0
	for _, t := range a.Tenants() {
		if t.DelayBoundNs == 0 {
			unbounded++
			unboundedPkts += t.Packets.Value()
			continue
		}
		parts = append(parts, fmt.Sprintf(
			"tenant %d: packets=%d maxDelay=%.1fµs bound=%.1fµs violations=%d",
			t.ID, t.Packets.Value(),
			float64(t.MaxDelayNs.Value())/1e3, float64(t.DelayBoundNs)/1e3,
			t.Violations.Value()))
	}
	if len(parts) == 0 && unbounded == 0 {
		return "guarantee audit: no tenants admitted"
	}
	s := "guarantee audit: " + strings.Join(parts, "; ")
	if unbounded > 0 {
		if len(parts) > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%d tenant(s) without delay bound (%d packets observed)", unbounded, unboundedPkts)
	}
	return s
}
