package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netsim"
)

// GuaranteeAuditor cross-references live measurements against the
// {B, S, d} triples admission control granted. It is the runtime
// counterpart of the placement manager's admission math: placement
// proves the guarantee holds in the worst case; the auditor verifies
// the running system never contradicts the proof.
//
// Per admitted tenant it counts audited packets, the exact worst
// NIC-to-NIC delay in nanoseconds, and violations: packets whose delay
// exceeded the admitted bound d (always zero if Silo is correct).
//
// The auditor is driven from the simulation goroutine; ObserveDelivery
// is a map lookup and three field updates, with no allocation. Every
// silo-sim run doubles as an audit: Summary is its one-line verdict. A
// nil *GuaranteeAuditor disables everything at one branch per call.
type GuaranteeAuditor struct {
	tenants map[int]*TenantAudit
	// tap receives one ViolationEvent per over-bound delivery.
	tap func(ViolationEvent)
}

// TenantAudit is the live audit state for one admitted tenant.
type TenantAudit struct {
	ID int
	// DelayBoundNs is the admitted bound d (0 = no delay bound: delay
	// is tracked but never a violation).
	DelayBoundNs int64

	// Packets counts audited packets.
	Packets int64
	// Violations counts packets over the admitted delay bound.
	Violations int64
	// MaxDelayNs is the exact worst delay in nanoseconds.
	MaxDelayNs int64
}

// NewGuaranteeAuditor returns an auditor with no tenants admitted.
func NewGuaranteeAuditor() *GuaranteeAuditor {
	return &GuaranteeAuditor{tenants: make(map[int]*TenantAudit)}
}

// Admit registers a tenant's guarantee for auditing. delayBoundSec is
// the admitted NIC-to-NIC bound d in seconds (<= 0 means the tenant
// has no delay bound; its packets and worst delay are still recorded).
// Admitting the same tenant twice returns the existing state.
func (a *GuaranteeAuditor) Admit(id int, delayBoundSec float64) *TenantAudit {
	if a == nil {
		return nil
	}
	if t, ok := a.tenants[id]; ok {
		return t
	}
	var boundNs int64
	if delayBoundSec > 0 {
		boundNs = int64(delayBoundSec * 1e9)
	}
	t := &TenantAudit{ID: id, DelayBoundNs: boundNs}
	a.tenants[id] = t
	return t
}

// SetDelayBound updates an admitted tenant's audited bound d (in
// seconds; <= 0 clears it). Failure recovery uses it when a tenant is
// re-admitted degraded: packets delivered after the update are judged
// against the loosened bound. Unknown tenants are ignored.
//
// The TenantAudit is edited in place, so every holder of it — a run's
// window tick included — sees the new bound from the next packet or
// window on.
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
// observation path is to stay allocation-free; an append to a slice
// the run keeps qualifies (amortized). nil clears the tap.
func (a *GuaranteeAuditor) SetViolationTap(fn func(ViolationEvent)) {
	if a == nil {
		return
	}
	a.tap = fn
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
	t.Packets++
	if delayNs > t.MaxDelayNs {
		t.MaxDelayNs = delayNs
	}
	if t.DelayBoundNs > 0 && delayNs > t.DelayBoundNs {
		t.Violations++
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

// AttachDelayAudit feeds every data packet nw delivers to a: its
// NIC-to-NIC delay (delivery time minus the SentAt wire stamp), against
// the destination VM's tenant. tenantOf maps a VM id to its tenant id
// (ok=false skips the packet); it runs once per delivered packet, so it
// must not allocate — a range check or array lookup, not a map built
// per call. A nil auditor subscribes nothing.
//
// The auditor's per-tenant counts aggregate in place with zero
// allocation; per-packet hop records are the flight recorder's job
// (AttachFlightRecorder).
func AttachDelayAudit(nw *netsim.Network, a *GuaranteeAuditor, tenantOf func(vmID int) (tenantID int, ok bool)) {
	if a == nil {
		return
	}
	sim := nw.Sim
	sim.Subscribe(func(ev netsim.Event) {
		p := ev.P
		if id, ok := tenantOf(p.DstVM); ok {
			// Delivery time and endpoints ride along so a violation tap
			// can emit a fully-identified event.
			a.ObserveDelivery(id, p.DstVM, p.SrcVM, sim.Now(), ev.Arg)
		}
	}, netsim.EvDeliver)
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
			unboundedPkts += t.Packets
			continue
		}
		parts = append(parts, fmt.Sprintf(
			"tenant %d: packets=%d maxDelay=%.1fµs bound=%.1fµs violations=%d",
			t.ID, t.Packets,
			float64(t.MaxDelayNs)/1e3, float64(t.DelayBoundNs)/1e3,
			t.Violations))
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
