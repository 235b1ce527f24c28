package placement

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/netcal"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// refManager is the admission path the Manager's search replaced, kept
// as the oracle the equivalence tests replay every request through: it
// materializes a curve for every bound, rebuilds the cut contributions
// on every probe, evaluates every scope with the slots for the tenant
// one after another (no memo, no headroom index, no collapse of
// untouched scopes, no workers), and explains a rejection by replaying
// the pack server by server. It reads the embedded Manager's state and
// changes it only through ApplyPlacement, NoteRejected, Remove and
// FailServers, so a refManager and a Manager fed the same requests
// can be compared decision by decision and port by port.
type refManager struct {
	*Manager
	// decisions journals the rejections the reference search made; nil
	// until EnableJournal.
	decisions map[int]*Decision
}

func newRefManager(tree *topology.Tree, opts Options) *refManager {
	return &refManager{Manager: NewManager(tree, opts)}
}

// EnableJournal also turns on the Manager's journal, which records the
// requests Place hands to it.
func (r *refManager) EnableJournal(keep int) {
	r.Manager.EnableJournal(keep)
	r.decisions = make(map[int]*Decision)
}

func (r *refManager) Decision(id int) (*Decision, bool) {
	if d, ok := r.decisions[id]; ok {
		return d, true
	}
	return r.Manager.Decision(id)
}

// refQueueBound is the port's queue bound under its aggregate plus an
// extra contribution, by the generic bound over a materialized curve.
// The reserved rate is checked first: where the peak line alone is the
// minimum the curve no longer carries it.
func refQueueBound(port *topology.Port, st portState, extra contribution) float64 {
	st.add(extra)
	if st.isZero() {
		return 0
	}
	if st.Rate > port.RateBps {
		return math.Inf(1)
	}
	var ar netcal.Arena
	return netcal.QueueBound(st.contribution.curveIn(&ar), netcal.NewRateLatency(port.RateBps, 0))
}

func (r *refManager) QueueBound(pid int) float64 {
	return refQueueBound(r.tree.Port(pid), r.ports[pid], contribution{})
}

func (r *refManager) portBoundWith(pid int, c contribution) float64 {
	return refQueueBound(r.tree.Port(pid), r.ports[pid], c)
}

// Place decides with the reference search and commits through the
// Manager's replay primitives. Requests that never reach the network
// search (invalid, duplicate, best-effort) are the Manager's to answer.
func (r *refManager) Place(spec tenant.Spec) (*tenant.Placement, error) {
	_, dup := r.admitted[spec.ID]
	if spec.Validate() != nil || dup || spec.Class == tenant.ClassBestEffort {
		return r.Manager.Place(spec)
	}
	var st searchStats
	servers := r.findPlacement(&spec, &st)
	if servers == nil {
		r.NoteRejected()
		if r.decisions != nil {
			r.decisions[spec.ID] = r.explainReject(&spec).withSearch(&st)
		}
		return nil, fmt.Errorf("%w: tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
	}
	return r.ApplyPlacement(spec, servers)
}

// Recover is Manager.Recover with every re-admission decided by the
// reference search: evacuate the affected tenants, fail the servers,
// re-place in ID order down the degradation ladder.
func (r *refManager) Recover(failedServers, failedPorts []int, opts RecoverOptions) *RecoveryReport {
	failed := make(map[int]bool, len(failedServers))
	for _, s := range failedServers {
		failed[s] = true
	}
	var ids []int
	for id, at := range r.admitted {
		affected := false
		for _, s := range at.placement.Servers {
			affected = affected || failed[s]
		}
		for _, pid := range failedPorts {
			_, crosses := at.contribs[pid]
			affected = affected || crosses
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
	old := make([]*tenant.Placement, len(ids))
	for i, id := range ids {
		old[i] = r.admitted[id].placement
		if err := r.Remove(id); err != nil {
			panic(err)
		}
	}
	r.FailServers(failedServers...)
	for i, id := range ids {
		spec := old[i].Spec
		tr := TenantRecovery{ID: id, Name: spec.Name, OldServers: old[i].Servers, OldGuarantee: spec.Guarantee}
		if pl, err := r.Place(spec); err == nil {
			tr.Verdict, tr.NewServers, tr.NewGuarantee = VerdictRelocated, pl.Servers, spec.Guarantee
			report.Relocated++
		} else {
			tr.Verdict = VerdictEvicted
			tried := spec.Guarantee
			for _, step := range ladder {
				dspec := degradeSpec(spec, step)
				if dspec.Guarantee == tried {
					continue
				}
				tried = dspec.Guarantee
				if pl, err := r.Place(dspec); err == nil {
					tr.Verdict, tr.NewServers, tr.NewGuarantee = VerdictDegraded, pl.Servers, dspec.Guarantee
					tr.Degradation = step.Note
					break
				} else if !errors.Is(err, ErrRejected) {
					panic(err)
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
	return report
}

// findPlacement searches scopes in height order, every scope with the
// slots for the tenant in index order, and returns the chosen server
// per VM, or nil.
func (r *refManager) findPlacement(spec *tenant.Spec, st *searchStats) []int {
	m := r.Manager
	delayBudget := spec.Guarantee.DelayBound
	if delayBudget <= 0 {
		delayBudget = math.Inf(1)
	}

	// Scope 0: single server.
	if spec.FaultDomains <= 1 && spec.VMs <= m.tree.Config().SlotsPerServer {
		for s := 0; s < m.tree.Servers(); s++ {
			if m.maxVMsByResources(spec, s) >= spec.VMs {
				servers := make([]int, spec.VMs)
				for i := range servers {
					servers[i] = s
				}
				return servers
			}
		}
	}

	// Scopes 1 and 2: single rack, then single pod.
	var sc searchScratch
	for _, h := range [...]struct {
		span     scopeHeight
		free     []int
		racksPer int
	}{
		{scopeRack, m.ix.freeByRack, 1},
		{scopePod, m.ix.freeByPod, m.tree.Config().RacksPerPod},
	} {
		if !m.scopeDelayOK(delayBudget, h.span) {
			continue
		}
		for i, free := range h.free {
			if free < spec.VMs {
				continue
			}
			st.evaluated[h.span]++
			if servers := r.tryScope(spec, &sc, i*h.racksPer, (i+1)*h.racksPer, h.span); servers != nil {
				return servers
			}
		}
	}
	// Scope 3: whole datacenter.
	if m.scopeDelayOK(delayBudget, scopeDC) && m.ix.totalFree >= spec.VMs {
		st.evaluated[scopeDC] = 1
		return r.tryScope(spec, &sc, 0, m.tree.Racks(), scopeDC)
	}
	return nil
}

func (r *refManager) tryScope(spec *tenant.Spec, sc *searchScratch, rlo, rhi int, span scopeHeight) []int {
	if r.packWithCaps(spec, sc, rlo, rhi, span) && r.layoutValid(spec, sc) {
		return sc.serversPacked(spec.VMs)
	}
	if r.spreadEven(spec, sc, rlo, rhi) && r.layoutValid(spec, sc) {
		return sc.serversRoundRobin(spec.VMs)
	}
	return nil
}

// maxVMsOnServer probes server s downward from its resource limit.
func (r *refManager) maxVMsOnServer(spec *tenant.Spec, s int, span scopeHeight) int {
	for k := min(r.maxVMsByResources(spec, s), spec.VMs); k >= 1; k-- {
		if r.serverPortsOK(spec, s, k, span) {
			return k
		}
	}
	return 0
}

// serverPortsOK is the seed's per-server check: it rebuilds the cut
// contributions and materializes curves on every probe.
func (r *refManager) serverPortsOK(spec *tenant.Spec, s, k int, span scopeHeight) bool {
	n, g := spec.VMs, spec.Guarantee
	up := r.tree.ServerUpPort(s)
	if !r.portOK(up, r.cutContribution(k, n, g, up.RateBps, 0)) {
		return false
	}
	// Ingress to the ToR from the rest of the tenant: worst case the
	// other n−k VMs are spread across many links, so peak is capped
	// only by their combined burst rate.
	infl := r.inflation(span, topology.LevelRack, topology.Down)
	return r.portOK(r.tree.RackDownPort(s), r.cutContribution(n-k, n, g, math.Inf(1), infl))
}

func (r *refManager) portOK(port *topology.Port, c contribution) bool {
	return c.isZero() || refQueueBound(port, r.ports[port.ID], c) <= port.QueueCapacity()+1e-12
}

// packWithCaps fills every server of racks [rlo, rhi) in order, each up
// to its own probed cap.
func (r *refManager) packWithCaps(spec *tenant.Spec, sc *searchScratch, rlo, rhi int, span scopeHeight) bool {
	sc.srv, sc.cnt = sc.srv[:0], sc.cnt[:0]
	left := spec.VMs
	maxPer := maxPerServer(spec.VMs, spec.FaultDomains)
	lo, _ := r.tree.ServersOfRack(rlo)
	_, hi := r.tree.ServersOfRack(rhi - 1)
	for s := lo; s < hi && left > 0; s++ {
		if k := min(r.maxVMsOnServer(spec, s, span), maxPer, left); k > 0 {
			sc.srv = append(sc.srv, s)
			sc.cnt = append(sc.cnt, k)
			left -= k
		}
	}
	return left == 0 && len(sc.srv) >= spec.FaultDomains
}

func (r *refManager) layoutValid(spec *tenant.Spec, sc *searchScratch) bool {
	lay := &sc.lay
	lay.build(r.tree, sc.srv, sc.cnt)
	ok := r.forEachContribution(spec, lay, func(pid, _ int, c contribution) bool {
		return r.portBoundWith(pid, c) <= r.portCap[pid]+1e-12
	})
	if !ok {
		return false
	}
	if d := spec.Guarantee.DelayBound; d > 0 {
		for i := range lay.servers {
			for j := i + 1; j < len(lay.servers); j++ {
				if r.pathDelayMetric(lay.servers[i], lay.servers[j]) > d+1e-15 {
					return false
				}
			}
		}
	}
	return true
}

func (r *refManager) pathDelayMetric(src, dst int) float64 {
	if !r.opts.DelayCheckUsesBound {
		return r.tree.PathDelayCapacity(src, dst)
	}
	var sum float64
	for _, p := range r.tree.Path(src, dst) {
		sum += refQueueBound(p, r.ports[p.ID], contribution{})
	}
	return sum
}

// explainReject is the journal's explanation as it was before it was
// rebuilt on the search's own packWithCaps and layoutValid: a replay of
// the pack at the widest admissible scope, server by server, recording
// which check failed first.
func (r *refManager) explainReject(spec *tenant.Spec) *Decision {
	m := r.Manager
	d := &Decision{TenantID: spec.ID, Name: spec.Name, VMs: spec.VMs, LimitingPort: -1}
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
	switch widest {
	case scopeRack:
		for rk := 0; rk < m.tree.Racks(); rk++ {
			if m.ix.freeByRack[rk] < spec.VMs {
				continue
			}
			lo, hi := m.tree.ServersOfRack(rk)
			if r.explainScope(spec, d, lo, hi, scopeRack) {
				return d
			}
		}
	case scopePod:
		for p := 0; p < m.tree.Pods(); p++ {
			if m.ix.freeByPod[p] < spec.VMs {
				continue
			}
			rlo, rhi := m.tree.RacksOfPod(p)
			slo, _ := m.tree.ServersOfRack(rlo)
			_, shi := m.tree.ServersOfRack(rhi - 1)
			if r.explainScope(spec, d, slo, shi, scopePod) {
				return d
			}
		}
	default:
		if m.ix.totalFree >= spec.VMs {
			if r.explainScope(spec, d, 0, m.tree.Servers(), scopeDC) {
				return d
			}
		}
	}
	if d.Reason == "" {
		d.Reason = fmt.Sprintf("insufficient free slots: no %s-scope candidate holds %d VMs", d.Span, spec.VMs)
	}
	return d
}

func (r *refManager) explainScope(spec *tenant.Spec, d *Decision, lo, hi int, span scopeHeight) bool {
	m := r.Manager
	n := spec.VMs
	maxPer := maxPerServer(n, spec.FaultDomains)
	servers := make([]int, 0, n)
	left := n
	limS, limK := -1, 0
	for s := lo; s < hi && left > 0; s++ {
		capRes := m.maxVMsByResources(spec, s)
		if capRes > n {
			capRes = n
		}
		capNet := r.maxVMsOnServer(spec, s, span)
		if limS < 0 && capNet < capRes && capNet < maxPer {
			limS, limK = s, capNet+1
		}
		k := capNet
		if k > maxPer {
			k = maxPer
		}
		if k > left {
			k = left
		}
		for j := 0; j < k; j++ {
			servers = append(servers, s)
		}
		left -= k
	}
	if left > 0 {
		if limS < 0 {
			return false
		}
		pid, bound := r.blockingServerPort(spec, limS, limK, span)
		d.LimitingPort = pid
		d.LimitingBoundSec = bound
		d.LimitingCapSec = m.portCap[pid]
		d.Reason = fmt.Sprintf(
			"constraint 1: server %d can host only %d VM(s) — VM %d drives %s port %d to a %.1fµs queue bound, over its %.1fµs capacity",
			limS, limK-1, limK, portKind(m.tree, pid), pid, bound*1e6, m.portCap[pid]*1e6)
		return true
	}
	if !faultDomainsOK(servers, spec.FaultDomains) {
		d.Reason = fmt.Sprintf("fault domains: packing %d VMs lands on fewer than %d servers", n, spec.FaultDomains)
		return true
	}
	lay := newLayout(m.tree, servers)
	violPort, violBound := -1, 0.0
	m.forEachContribution(spec, &lay, func(pid, _ int, c contribution) bool {
		if b := r.portBoundWith(pid, c); b > m.portCap[pid]+1e-12 {
			violPort, violBound = pid, b
			return false
		}
		return true
	})
	if violPort >= 0 {
		d.LimitingPort = violPort
		d.LimitingBoundSec = violBound
		d.LimitingCapSec = m.portCap[violPort]
		d.Reason = fmt.Sprintf(
			"constraint 1: packed layout drives %s port %d to a %.1fµs queue bound, over its %.1fµs capacity",
			portKind(m.tree, violPort), violPort, violBound*1e6, m.portCap[violPort]*1e6)
		return true
	}
	if dB := spec.Guarantee.DelayBound; dB > 0 {
		for i := 0; i < len(lay.servers); i++ {
			for j := i + 1; j < len(lay.servers); j++ {
				if pd := r.pathDelayMetric(lay.servers[i], lay.servers[j]); pd > dB+1e-15 {
					d.Reason = fmt.Sprintf(
						"constraint 2: path %d↔%d carries %.1fµs of queue capacity, over the %.1fµs delay bound",
						lay.servers[i], lay.servers[j], pd*1e6, dB*1e6)
					return true
				}
			}
		}
	}
	return false
}

// blockingServerPort names the server-local port that rejects the k-th
// VM on server s, in serverPortsOK's order and arithmetic.
func (r *refManager) blockingServerPort(spec *tenant.Spec, s, k int, span scopeHeight) (int, float64) {
	n, g := spec.VMs, spec.Guarantee
	up := r.tree.ServerUpPortID(s)
	if upC := r.cutContribution(k, n, g, r.tree.ServerUpPort(s).RateBps, 0); !upC.isZero() {
		if b := r.portBoundWith(up, upC); b > r.portCap[up]+1e-12 {
			return up, b
		}
	}
	down := r.tree.RackDownPortID(s)
	infl := r.inflation(span, topology.LevelRack, topology.Down)
	return down, r.portBoundWith(down, r.cutContribution(n-k, n, g, math.Inf(1), infl))
}
