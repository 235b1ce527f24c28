package placement

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/tenant"
	"repro/internal/topology"
)

// PortLoad is the aggregate admitted arrival-curve state at one
// directed port, in the scalar form the manager maintains incrementally
// (sums of rate-capped curves min(Peak·t+Seed, Rate·t+Burst)). The
// introspection plane re-derives every port's backlog and busy-period
// bounds from these scalars via the netcal closed forms.
type PortLoad struct {
	Rate    float64 // admitted sustained rate, bytes/sec
	Burst   float64 // admitted burst, bytes (incl. upstream inflation)
	Peak    float64 // admitted peak rate, bytes/sec
	Seed    float64 // instantaneous packet-scale burst, bytes
	Tenants int     // tenants contributing at the port
}

// PortLoad returns the current aggregate load at port pid.
func (m *Manager) PortLoad(pid int) PortLoad {
	st := m.ports.state(pid)
	return PortLoad{Rate: st.Rate, Burst: st.Burst, Peak: st.Peak, Seed: st.Seed, Tenants: st.tenants}
}

// PortRateBps returns port pid's line rate in bytes/sec.
func (m *Manager) PortRateBps(pid int) float64 { return m.tree.Port(pid).RateBps }

// PortCapacitySec returns port pid's queue capacity (buffer drain
// time) in seconds — the right-hand side of admission constraint 1.
func (m *Manager) PortCapacitySec(pid int) float64 { return m.tree.Port(pid).QueueCapacity() }

// PortCut is one directed port's share of a tenant's admission
// footprint: how many VMs sit on the near side of the cut, the
// contribution curve that cut adds at the port, and the port's queue
// bound before and after admitting it.
type PortCut struct {
	Port   int
	Kind   string // "server/up", "rack/down", ...
	CutVMs int    // VMs on the near side of the cut

	Rate, Burst, Peak, Seed float64 // contribution scalars

	BoundBeforeSec float64
	BoundAfterSec  float64
	CapacitySec    float64
}

// MarginSec is the slack constraint 1 leaves at the port after
// admission: capacity minus the post-admission queue bound.
func (pc PortCut) MarginSec() float64 { return pc.CapacitySec - pc.BoundAfterSec }

// Decision is one journaled admission decision.
type Decision struct {
	TenantID int
	Name     string
	VMs      int
	Accepted bool
	Servers  []int // chosen servers (accepted only)
	Span     string

	// Cuts lists every port the tenant's traffic crosses, ascending by
	// port ID (accepted only).
	Cuts []PortCut

	// LimitingPort is the binding port: on accept, the crossed port
	// with the least margin; on a constraint-1 reject, the violated
	// port. -1 when the decision was not port-bound.
	LimitingPort     int
	LimitingBoundSec float64
	LimitingCapSec   float64

	// Reason explains a rejection in one sentence.
	Reason string

	// ScopesEvaluated and ScopesCollapsed say what the scope search did
	// at each height it reached, indexed rack, pod, datacenter: how many
	// candidate scopes first-fit order tried (up to and including the
	// one that hosted the tenant), and how many untouched scopes it
	// skipped as copies of an evaluated one. Scopes without the free
	// slots for the tenant count as neither.
	ScopesEvaluated [3]int
	ScopesCollapsed [3]int
}

// withSearch copies the search counters into the decision.
func (d *Decision) withSearch(st *searchStats) *Decision {
	d.ScopesEvaluated, d.ScopesCollapsed = st.evaluated, st.collapsed
	return d
}

// EnableJournal turns on the admission decision journal, which keeps
// every tenant's latest decision.
func (m *Manager) EnableJournal() {
	m.journal = make(map[int]*Decision)
}

// Decision returns the journaled admission decision for a tenant.
func (m *Manager) Decision(tenantID int) (*Decision, bool) {
	d, ok := m.journal[tenantID]
	return d, ok
}

// Explain renders the journaled decision for a tenant.
func (m *Manager) Explain(tenantID int) string {
	d, ok := m.Decision(tenantID)
	switch {
	case !ok && m.journal == nil:
		return fmt.Sprintf("tenant %d: no journaled decision (enable the journal before Place)\n", tenantID)
	case !ok:
		return fmt.Sprintf("tenant %d: no journaled decision (no request for it since the journal was enabled)\n", tenantID)
	}
	return d.Render(m.tree)
}

func spanName(h scopeHeight) string {
	switch h {
	case scopeRack:
		return "rack"
	case scopePod:
		return "pod"
	default:
		return "datacenter"
	}
}

func portKind(tree *topology.Tree, pid int) string {
	p := tree.Port(pid)
	return fmt.Sprintf("%s/%s", p.Level, p.Dir)
}

// recordAccept builds the journal entry for an accepted tenant from the
// same cut walk that commits it (forEachContribution). It must run
// before the tenant's contributions are added to the port state, so
// BoundBeforeSec reflects the pre-admission aggregate. The bounds go
// through portBoundWith, as the admission search's did, so the journal
// replays the decision's exact arithmetic. A best-effort tenant crosses
// no port in the admission model, so its entry has no cuts.
func (m *Manager) recordAccept(spec *tenant.Spec, servers []int) *Decision {
	lay := newLayout(m.tree, servers)
	d := &Decision{
		TenantID:     spec.ID,
		Name:         spec.Name,
		VMs:          spec.VMs,
		Accepted:     true,
		Servers:      append([]int(nil), lay.servers...),
		Span:         spanName(lay.span()),
		LimitingPort: -1,
	}
	if spec.Class == tenant.ClassBestEffort {
		return d
	}
	m.forEachContribution(spec, &lay, func(pid, cut int, c contribution) bool {
		before, capacity := m.portBoundWith(pid, contribution{})
		after, _ := m.portBoundWith(pid, c)
		d.Cuts = append(d.Cuts, PortCut{
			Port:           pid,
			Kind:           portKind(m.tree, pid),
			CutVMs:         cut,
			Rate:           c.Rate,
			Burst:          c.Burst,
			Peak:           c.Peak,
			Seed:           c.Seed,
			BoundBeforeSec: before,
			BoundAfterSec:  after,
			CapacitySec:    capacity,
		})
		return true
	})
	sort.Slice(d.Cuts, func(i, j int) bool { return d.Cuts[i].Port < d.Cuts[j].Port })
	minMargin := math.Inf(1)
	for _, pc := range d.Cuts {
		if mg := pc.MarginSec(); mg < minMargin {
			minMargin = mg
			d.LimitingPort = pc.Port
			d.LimitingBoundSec = pc.BoundAfterSec
			d.LimitingCapSec = pc.CapacitySec
		}
	}
	return d
}

// explainReject names the constraint that bound a request admission
// just turned away. A best-effort request only needs slots. For any
// other it walks the decision structure findPlacement did —
// constraint-2 scope gating, then the greedy pack at the widest
// admissible scope — through the search's own packWithCaps and
// layoutValid, which this time note the first check that fails. The
// request's reqMemo is still filled, so caps and bounds are the ones
// the search computed.
func (m *Manager) explainReject(spec *tenant.Spec) *Decision {
	d := &Decision{
		TenantID:     spec.ID,
		Name:         spec.Name,
		VMs:          spec.VMs,
		LimitingPort: -1,
	}
	if spec.Class == tenant.ClassBestEffort {
		d.Reason = fmt.Sprintf("best-effort: no slot-feasible packing for %d VMs", spec.VMs)
		return d
	}
	budget := spec.Guarantee.DelayBound
	if budget <= 0 {
		budget = math.Inf(1)
	}
	widest := scopeHeight(-1)
	for h := scopeDC; h >= scopeRack; h-- {
		if m.scopeDelayOK(budget, h) {
			widest = h
			break
		}
	}
	if widest < 0 {
		d.Reason = fmt.Sprintf(
			"constraint 2: delay bound d=%.4gs is below the rack-scope path capacity %.4gs — no multi-server placement can meet it",
			budget, m.tree.ServerUpPort(0).QueueCapacity()+m.tree.RackDownPort(0).QueueCapacity())
		return d
	}
	d.Span = spanName(widest)
	// Probe the widest scope's candidates in the search's first-fit
	// order; the first candidate with enough free slots yields the
	// concrete limiting constraint.
	free, racksPer := []int{m.ix.totalFree}, m.tree.Racks()
	switch widest {
	case scopeRack:
		free, racksPer = m.ix.freeByRack, 1
	case scopePod:
		free, racksPer = m.ix.freeByPod, m.tree.Config().RacksPerPod
	}
	for i, f := range free {
		if f >= spec.VMs && m.explainScope(spec, d, i*racksPer, (i+1)*racksPer, widest) {
			return d
		}
	}
	d.Reason = fmt.Sprintf("insufficient free slots: no %s-scope candidate holds %d VMs", d.Span, spec.VMs)
	return d
}

// explainScope runs the greedy pack over racks [rlo, rhi) and reports
// the first binding failure into d. Returns false if the scope never
// had a concrete failure to blame (e.g. not enough slots here — the
// caller moves to the next candidate).
func (m *Manager) explainScope(spec *tenant.Spec, d *Decision, rlo, rhi int, span scopeHeight) bool {
	note := bindNote{server: -1, port: -1}
	sc := &m.scratch
	limit := func(pid int, bound float64) {
		d.LimitingPort, d.LimitingBoundSec, d.LimitingCapSec = pid, bound, m.PortCapacitySec(pid)
	}
	if !m.packWithCaps(spec, sc, rlo, rhi, span, &note) {
		placed := 0
		for _, k := range sc.cnt {
			placed += k
		}
		switch {
		case placed == spec.VMs:
			d.Reason = fmt.Sprintf("fault domains: packing %d VMs lands on fewer than %d servers", spec.VMs, spec.FaultDomains)
		case note.server < 0:
			// Slot-starved, not network-bound; let the caller
			// try the next candidate or fall through to the generic
			// slots message.
			return false
		default:
			pid, bound := m.blockingServerPort(note.server, note.vm, span)
			limit(pid, bound)
			d.Reason = fmt.Sprintf(
				"constraint 1: server %d can host only %d VM(s) — VM %d drives %s port %d to a %.1fµs queue bound, over its %.1fµs capacity",
				note.server, note.vm-1, note.vm, portKind(m.tree, pid), pid, bound*1e6, d.LimitingCapSec*1e6)
		}
		return true
	}
	// The pack produced a full layout, so its aggregate constraints
	// must be what failed.
	switch {
	case m.layoutValid(spec, sc, &note):
		// The greedy pack was viable but the search still rejected — the
		// spread pass must have been forced and failed the same checks;
		// the generic message is the honest summary.
		return false
	case note.port >= 0:
		limit(note.port, note.bound)
		d.Reason = fmt.Sprintf(
			"constraint 1: packed layout drives %s port %d to a %.1fµs queue bound, over its %.1fµs capacity",
			portKind(m.tree, note.port), note.port, note.bound*1e6, d.LimitingCapSec*1e6)
	default:
		d.Reason = fmt.Sprintf(
			"constraint 2: path %d↔%d carries %.1fµs of queue capacity, over the %.1fµs delay bound",
			note.src, note.dst, note.delay*1e6, spec.Guarantee.DelayBound*1e6)
	}
	return true
}

// blockingServerPort names the server-local port that rejects the k-th
// VM on server s: the NIC-up check first, then the ToR-down check, in
// maxVMsOnServer's order and from the same memoized cut contributions.
func (m *Manager) blockingServerPort(s, k int, span scopeHeight) (int, float64) {
	up := m.tree.ServerUpPortID(s)
	if c := m.memo.upC[k]; !c.isZero() {
		if b, capacity := m.portBoundWith(up, c); b > capacity+1e-12 {
			return up, b
		}
	}
	down := m.tree.RackDownPortID(s)
	b, _ := m.portBoundWith(down, m.memo.downC[span][k])
	return down, b
}

// Render formats the decision for the CLI.
func (d *Decision) Render(tree *topology.Tree) string {
	var b strings.Builder
	if d.Accepted {
		fmt.Fprintf(&b, "tenant %d %q: ACCEPTED — %d VMs on %d server(s), %s scope\n",
			d.TenantID, d.Name, d.VMs, len(d.Servers), d.Span)
		fmt.Fprintf(&b, "  servers: %v\n", d.Servers)
		if len(d.Cuts) == 0 {
			b.WriteString("  no network ports crossed (single-server placement)\n")
			return b.String()
		}
		fmt.Fprintf(&b, "  %-12s %-6s %-4s %12s %12s %10s %10s %10s %10s\n",
			"port", "id", "cut", "rate(MBps)", "burst(KB)", "before(µs)", "after(µs)", "cap(µs)", "margin(µs)")
		for _, pc := range d.Cuts {
			mark := ""
			if pc.Port == d.LimitingPort {
				mark = "  <- limiting"
			}
			fmt.Fprintf(&b, "  %-12s %-6d %-4d %12.2f %12.1f %10.1f %10.1f %10.1f %10.1f%s\n",
				pc.Kind, pc.Port, pc.CutVMs, pc.Rate/1e6, pc.Burst/1e3,
				pc.BoundBeforeSec*1e6, pc.BoundAfterSec*1e6, pc.CapacitySec*1e6, pc.MarginSec()*1e6, mark)
		}
		d.renderSearch(&b)
		return b.String()
	}
	fmt.Fprintf(&b, "tenant %d %q: REJECTED — %d VMs\n", d.TenantID, d.Name, d.VMs)
	fmt.Fprintf(&b, "  %s\n", d.Reason)
	if d.LimitingPort >= 0 {
		fmt.Fprintf(&b, "  limiting port: %s %d — bound %.1fµs vs capacity %.1fµs\n",
			portKind(tree, d.LimitingPort), d.LimitingPort, d.LimitingBoundSec*1e6, d.LimitingCapSec*1e6)
	}
	d.renderSearch(&b)
	return b.String()
}

// renderSearch writes the scope-search line: per height reached, the
// scopes evaluated and the untouched ones collapsed into them.
func (d *Decision) renderSearch(b *strings.Builder) {
	sep := "  search: "
	for h := scopeRack; h <= scopeDC; h++ {
		if d.ScopesEvaluated[h] == 0 && d.ScopesCollapsed[h] == 0 {
			continue
		}
		fmt.Fprintf(b, "%s%s %d evaluated", sep, spanName(h), d.ScopesEvaluated[h])
		if c := d.ScopesCollapsed[h]; c > 0 {
			fmt.Fprintf(b, " (+%d untouched collapsed)", c)
		}
		sep = ", "
	}
	if sep == ", " {
		b.WriteByte('\n')
	}
}
