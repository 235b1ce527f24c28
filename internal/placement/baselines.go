package placement

import (
	"fmt"

	"repro/internal/tenant"
	"repro/internal/topology"
)

// This file implements the placement baselines Silo is compared
// against in the paper's evaluation (§6.2, §6.3):
//
//   - Locality: greedily packs VMs as close together as possible,
//     ignoring the network entirely (the "Locality (TCP)" lines).
//   - Oktopus: bandwidth-aware placement after Ballani et al. — admits
//     a tenant only if the hose bandwidth needed across every link cut
//     fits in the residual link capacity. No burst or delay
//     accounting.
//   - Okto+: identical placement to Oktopus; the "+" (burst allowance
//     at runtime) only changes transport behaviour, so the simulator
//     configures it differently but placement is shared.

// packGreedy packs n VMs into the free slots of ix preferring low tree
// height: the lowest server with room for all of them first, then
// racks, pods, and finally the whole datacenter in index order,
// skipping a rack whose free-slot sum is short in O(1). Returns the
// per-VM server list or nil. Used by Locality, Oktopus and by Silo's
// best-effort path.
func packGreedy(tree *topology.Tree, ix *slotIndex, n, faultDomains int) []int {
	if faultDomains <= 1 {
		if s := ix.serverWith(n); s >= 0 {
			return repeatServer(s, n)
		}
	}
	maxPer := maxPerServer(n, faultDomains)
	tryRange := func(lo, hi int) []int {
		total := 0
		for s := lo; s < hi; s++ {
			total += ix.slots(s)
		}
		if total < n {
			return nil
		}
		out := make([]int, 0, n)
		left := n
		for s := lo; s < hi && left > 0; s++ {
			k := ix.slots(s)
			if k > maxPer {
				k = maxPer
			}
			if k > left {
				k = left
			}
			for i := 0; i < k; i++ {
				out = append(out, s)
			}
			left -= k
		}
		if left > 0 || !faultDomainsOK(out, faultDomains) {
			return nil
		}
		return out
	}
	for r := 0; r < tree.Racks(); r++ {
		if ix.freeByRack[r] < n {
			continue
		}
		lo, hi := tree.ServersOfRack(r)
		if out := tryRange(lo, hi); out != nil {
			return out
		}
	}
	for p := 0; p < tree.Pods(); p++ {
		if ix.freeByPod[p] < n {
			continue
		}
		rlo, rhi := tree.RacksOfPod(p)
		slo, _ := tree.ServersOfRack(rlo)
		_, shi := tree.ServersOfRack(rhi - 1)
		if out := tryRange(slo, shi); out != nil {
			return out
		}
	}
	if ix.totalFree < n {
		return nil
	}
	return tryRange(0, tree.Servers())
}

// Locality is the locality-aware greedy placer.
type Locality struct {
	tree     *topology.Tree
	ix       *slotIndex
	admitted map[int]*tenant.Placement
}

// NewLocality returns a locality-aware placer over the tree.
func NewLocality(tree *topology.Tree) *Locality {
	return &Locality{
		tree:     tree,
		ix:       newSlotIndex(tree),
		admitted: make(map[int]*tenant.Placement),
	}
}

// Name implements Algorithm.
func (l *Locality) Name() string { return "locality" }

// Place implements Algorithm.
func (l *Locality) Place(spec tenant.Spec) (*tenant.Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := l.admitted[spec.ID]; dup {
		return nil, fmt.Errorf("placement: tenant %d already admitted", spec.ID)
	}
	servers := packGreedy(l.tree, l.ix, spec.VMs, spec.FaultDomains)
	if servers == nil {
		return nil, fmt.Errorf("%w: tenant %q (%d VMs): no free slots", ErrRejected, spec.Name, spec.VMs)
	}
	for _, s := range servers {
		l.ix.take(s)
	}
	pl := &tenant.Placement{Spec: spec, Servers: servers}
	l.admitted[spec.ID] = pl
	return pl, nil
}

// Remove implements Algorithm.
func (l *Locality) Remove(id int) error {
	pl, ok := l.admitted[id]
	if !ok {
		return fmt.Errorf("placement: unknown tenant: id %d", id)
	}
	for _, s := range pl.Servers {
		l.ix.free(s)
	}
	delete(l.admitted, id)
	return nil
}

// Oktopus is the bandwidth-aware baseline placer. It tracks residual
// bandwidth per directed port and admits a tenant iff every cut's
// hose bandwidth fits.
type Oktopus struct {
	tree     *topology.Tree
	ix       *slotIndex
	residual []float64 // bytes/sec left per directed port
	admitted map[int]*oktoTenant
}

type oktoTenant struct {
	placement *tenant.Placement
	demand    map[int]float64 // port -> reserved bytes/sec
}

// NewOktopus returns an Oktopus placer over the tree.
func NewOktopus(tree *topology.Tree) *Oktopus {
	o := &Oktopus{
		tree:     tree,
		ix:       newSlotIndex(tree),
		residual: make([]float64, tree.NumPorts()),
		admitted: make(map[int]*oktoTenant),
	}
	for i := range o.residual {
		o.residual[i] = tree.Port(i).RateBps
	}
	return o
}

// Name implements Algorithm.
func (o *Oktopus) Name() string { return "oktopus" }

// Place implements Algorithm.
func (o *Oktopus) Place(spec tenant.Spec) (*tenant.Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := o.admitted[spec.ID]; dup {
		return nil, fmt.Errorf("placement: tenant %d already admitted", spec.ID)
	}
	if spec.Class == tenant.ClassBestEffort {
		servers := packGreedy(o.tree, o.ix, spec.VMs, spec.FaultDomains)
		if servers == nil {
			return nil, fmt.Errorf("%w: best-effort tenant %q", ErrRejected, spec.Name)
		}
		for _, s := range servers {
			o.ix.take(s)
		}
		pl := &tenant.Placement{Spec: spec, Servers: servers}
		o.admitted[spec.ID] = &oktoTenant{placement: pl, demand: map[int]float64{}}
		return pl, nil
	}

	servers := o.findPlacement(spec)
	if servers == nil {
		return nil, fmt.Errorf("%w: tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
	}
	pl := &tenant.Placement{Spec: spec, Servers: servers}
	demand := o.demands(spec, newDistribution(o.tree, servers))
	for pid, bw := range demand {
		o.residual[pid] -= bw
	}
	for _, s := range servers {
		o.ix.take(s)
	}
	o.admitted[spec.ID] = &oktoTenant{placement: pl, demand: demand}
	return pl, nil
}

// Remove implements Algorithm.
func (o *Oktopus) Remove(id int) error {
	at, ok := o.admitted[id]
	if !ok {
		return fmt.Errorf("placement: unknown tenant: id %d", id)
	}
	for pid, bw := range at.demand {
		o.residual[pid] += bw
	}
	for _, s := range at.placement.Servers {
		o.ix.free(s)
	}
	delete(o.admitted, id)
	return nil
}

func (o *Oktopus) findPlacement(spec tenant.Spec) []int {
	if spec.FaultDomains <= 1 {
		if s := o.ix.serverWith(spec.VMs); s >= 0 {
			return repeatServer(s, spec.VMs)
		}
	}
	try := func(lo, hi int) []int {
		servers := o.packBandwidth(spec, lo, hi)
		if servers == nil {
			return nil
		}
		if !o.layoutFits(spec, servers) {
			return nil
		}
		return servers
	}
	for r := 0; r < o.tree.Racks(); r++ {
		if o.ix.freeByRack[r] < spec.VMs {
			continue
		}
		lo, hi := o.tree.ServersOfRack(r)
		if out := try(lo, hi); out != nil {
			return out
		}
	}
	for p := 0; p < o.tree.Pods(); p++ {
		if o.ix.freeByPod[p] < spec.VMs {
			continue
		}
		rlo, rhi := o.tree.RacksOfPod(p)
		slo, _ := o.tree.ServersOfRack(rlo)
		_, shi := o.tree.ServersOfRack(rhi - 1)
		if out := try(slo, shi); out != nil {
			return out
		}
	}
	if o.ix.totalFree < spec.VMs {
		return nil
	}
	return try(0, o.tree.Servers())
}

// packBandwidth fills servers honoring the Oktopus per-server cap: the
// residual NIC bandwidth limits how many VMs a server can host
// (hose cut min(k, N−k)·B must fit the NIC's residual both ways).
func (o *Oktopus) packBandwidth(spec tenant.Spec, lo, hi int) []int {
	b := spec.Guarantee.BandwidthBps
	n := spec.VMs
	maxPer := maxPerServer(n, spec.FaultDomains)
	servers := make([]int, 0, n)
	left := n
	for s := lo; s < hi && left > 0; s++ {
		maxK := o.ix.slots(s)
		if maxK > maxPer {
			maxK = maxPer
		}
		if maxK > left {
			maxK = left
		}
		k := 0
		for cand := maxK; cand >= 1; cand-- {
			need := hoseCut(cand, n, b)
			if need <= o.residual[o.tree.ServerUpPortID(s)]+1e-9 &&
				need <= o.residual[o.tree.RackDownPortID(s)]+1e-9 {
				k = cand
				break
			}
		}
		for i := 0; i < k; i++ {
			servers = append(servers, s)
		}
		left -= k
	}
	if left > 0 || !faultDomainsOK(servers, spec.FaultDomains) {
		return nil
	}
	return servers
}

// layoutFits verifies every cut's hose bandwidth against port
// residuals.
func (o *Oktopus) layoutFits(spec tenant.Spec, servers []int) bool {
	for pid, bw := range o.demands(spec, newDistribution(o.tree, servers)) {
		if bw > o.residual[pid]+1e-9 {
			return false
		}
	}
	return true
}

// demands maps directed ports to the hose bandwidth the tenant
// reserves there.
func (o *Oktopus) demands(spec tenant.Spec, dist distribution) map[int]float64 {
	b := spec.Guarantee.BandwidthBps
	n := dist.total
	t := o.tree
	out := make(map[int]float64)
	for s, k := range dist.perServer {
		if bw := hoseCut(k, n, b); bw > 0 {
			out[t.ServerUpPortID(s)] = bw
			out[t.RackDownPortID(s)] = bw
		}
	}
	for r, k := range dist.perRack {
		if k == n {
			continue
		}
		if bw := hoseCut(k, n, b); bw > 0 {
			out[t.RackUpPortID(r)] = bw
			out[t.PodDownPortID(r)] = bw
		}
	}
	for p, k := range dist.perPod {
		if k == n {
			continue
		}
		if bw := hoseCut(k, n, b); bw > 0 {
			out[t.PodUpPortID(p)] = bw
			out[t.CoreDownPortID(p)] = bw
		}
	}
	return out
}

// repeatServer is the placement of n VMs on server s alone.
func repeatServer(s, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// maxPerServer caps per-server VM counts so that at least
// `faultDomains` servers end up hosting VMs.
func maxPerServer(n, faultDomains int) int {
	if faultDomains <= 1 {
		return n
	}
	return (n + faultDomains - 1) / faultDomains
}

// hoseCut returns the hose-model bandwidth crossing a cut with k of n
// VMs on one side: min(k, n−k)·B.
func hoseCut(k, n int, b float64) float64 {
	if k <= 0 || k >= n {
		return 0
	}
	other := n - k
	if other < k {
		k = other
	}
	return float64(k) * b
}
