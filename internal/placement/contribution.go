// Package placement implements Silo's admission control and VM
// placement (paper §4.2) plus the baselines it is evaluated against:
// Oktopus-style bandwidth-aware placement, Okto+ (Oktopus with burst
// allowance), and locality-aware greedy packing.
//
// Silo maps a tenant's {B, S, d} guarantees onto two constraints over
// directed switch ports:
//
//  1. at every port carrying the tenant's traffic, the worst-case
//     queuing delay (queue bound, from network calculus) must not
//     exceed the port's queue capacity (buffer drain time) — this
//     guarantees bandwidth and that bursts never overflow buffers;
//  2. along every path between two of the tenant's VMs, the sum of
//     queue capacities must not exceed the tenant's delay bound d.
//
// Port state is maintained as the exact scalar sums (rate, burst,
// peak, seed) of the admitted rate-capped arrival curves. The two-piece
// curve rebuilt from those sums pointwise dominates the true aggregate
// (min is superadditive), so the computed queue bound is conservative,
// while adds and removals stay O(1) and exact.
package placement

import (
	"sort"

	"repro/internal/netcal"
	"repro/internal/topology"
)

// contribution is a tenant's arrival-curve contribution at one
// directed port, in the scalar form of a rate-capped curve
// min(Peak·t + Seed, Rate·t + Burst).
type contribution struct {
	Rate  float64 // sustained bytes/sec across the cut (hose-limited)
	Burst float64 // burst bytes, including upstream inflation
	Peak  float64 // peak arrival rate at this port, bytes/sec
	Seed  float64 // instantaneous packet-scale burst, bytes
}

func (c contribution) isZero() bool {
	return c.Rate == 0 && c.Burst == 0 && c.Peak == 0 && c.Seed == 0
}

// curveIn materializes the contribution as a netcal curve with segments
// drawn from the arena, so an invariant sweep over every port allocates
// nothing per curve.
func (c contribution) curveIn(ar *netcal.Arena) netcal.Curve {
	if c.Peak <= 0 {
		return ar.TokenBucket(c.Rate, c.Burst)
	}
	return ar.RateCapped(c.Rate, c.Burst, c.Peak, c.Seed)
}

// portState is the aggregate of all admitted contributions at a port.
type portState struct {
	contribution
	tenants int // number of tenants contributing
}

func (p *portState) add(c contribution) {
	p.Rate += c.Rate
	p.Burst += c.Burst
	p.Peak += c.Peak
	p.Seed += c.Seed
	p.tenants++
}

func (p *portState) remove(c contribution) {
	p.Rate -= c.Rate
	p.Burst -= c.Burst
	p.Peak -= c.Peak
	p.Seed -= c.Seed
	p.tenants--
	// Clamp float residue so an emptied port is exactly zero.
	if p.tenants == 0 {
		p.contribution = contribution{}
	}
}

// queueBoundFast returns the port's worst-case queuing delay in seconds
// under the aggregate state plus an optional extra contribution: the
// summed scalars feed the closed-form two-piece bound directly, with no
// curve materialized. svcRate is the port's line rate. Allocation-free
// and safe for concurrent use over immutable state (st is only read).
func queueBoundFast(svcRate float64, st *portState, extra contribution) float64 {
	total := st.contribution
	total.Rate += extra.Rate
	total.Burst += extra.Burst
	total.Peak += extra.Peak
	total.Seed += extra.Seed
	if total.isZero() {
		return 0
	}
	if total.Peak <= 0 {
		return netcal.QueueBoundTB(total.Rate, total.Burst, svcRate)
	}
	return netcal.QueueBoundTwoPiece(total.Rate, total.Burst, total.Peak, total.Seed, svcRate)
}

// layout is a compact summary of where a candidate placement's VMs sit
// relative to the tree: distinct servers in ascending order with VM
// counts, rolled up per rack and pod. It replaces the map-based
// distribution on Silo's admission hot path, where layoutValid runs
// for every candidate scope and map traffic dominated the profile.
// One layout is rebuilt in place for every candidate a search worker
// tries (build).
type layout struct {
	total int

	servers    []int // distinct hosting servers, ascending
	serverCnt  []int // VMs on servers[i]
	serverRack []int // index into racks for servers[i]

	racks   []int // distinct racks, ascending
	rackCnt []int // VMs in racks[i]
	rackSrv []int // distinct hosting servers in racks[i]
	rackPod []int // index into pods for racks[i]

	pods     []int // distinct pods, ascending
	podCnt   []int // VMs in pods[i]
	podRacks []int // distinct hosting racks in pods[i]
}

// newLayout summarizes a per-VM server list (any order). The commit and
// journal paths use it, once per decision; the scope search builds its
// candidates as ascending (server, count) pairs and calls build
// directly.
func newLayout(tree *topology.Tree, servers []int) layout {
	sorted := servers
	if !sort.IntsAreSorted(sorted) {
		sorted = append([]int(nil), servers...)
		sort.Ints(sorted)
	}
	var srv, cnt []int
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		srv = append(srv, sorted[i])
		cnt = append(cnt, j-i)
		i = j
	}
	var lay layout
	lay.build(tree, srv, cnt)
	return lay
}

// build fills the layout from distinct servers in ascending order and
// the VM count on each, reusing the layout's slices. It keeps references
// to srv and cnt.
func (lay *layout) build(tree *topology.Tree, srv, cnt []int) {
	lay.total = 0
	lay.servers, lay.serverCnt, lay.serverRack = srv, cnt, lay.serverRack[:0]
	lay.racks, lay.rackCnt, lay.rackSrv, lay.rackPod = lay.racks[:0], lay.rackCnt[:0], lay.rackSrv[:0], lay.rackPod[:0]
	lay.pods, lay.podCnt, lay.podRacks = lay.pods[:0], lay.podCnt[:0], lay.podRacks[:0]
	for i, s := range srv {
		r := tree.RackOfServer(s)
		if len(lay.racks) == 0 || lay.racks[len(lay.racks)-1] != r {
			p := tree.PodOfRack(r)
			if len(lay.pods) == 0 || lay.pods[len(lay.pods)-1] != p {
				lay.pods = append(lay.pods, p)
				lay.podCnt = append(lay.podCnt, 0)
				lay.podRacks = append(lay.podRacks, 0)
			}
			lay.racks = append(lay.racks, r)
			lay.rackCnt = append(lay.rackCnt, 0)
			lay.rackSrv = append(lay.rackSrv, 0)
			lay.rackPod = append(lay.rackPod, len(lay.pods)-1)
			lay.podRacks[len(lay.pods)-1]++
		}
		ri := len(lay.racks) - 1
		lay.serverRack = append(lay.serverRack, ri)
		lay.total += cnt[i]
		lay.rackCnt[ri] += cnt[i]
		lay.rackSrv[ri]++
		lay.podCnt[lay.rackPod[ri]] += cnt[i]
	}
}

// span returns the smallest scope containing all of the layout's VMs.
func (lay *layout) span() scopeHeight {
	if len(lay.pods) > 1 {
		return scopeDC
	}
	if len(lay.racks) > 1 {
		return scopePod
	}
	return scopeRack
}

// distribution summarizes where a tenant's VMs sit relative to the
// tree, for computing per-port cuts and ingress capacities.
type distribution struct {
	total     int
	perServer map[int]int
	perRack   map[int]int
	perPod    map[int]int
}

func newDistribution(tree *topology.Tree, servers []int) distribution {
	d := distribution{
		total:     len(servers),
		perServer: make(map[int]int),
		perRack:   make(map[int]int),
		perPod:    make(map[int]int),
	}
	for _, s := range servers {
		d.perServer[s]++
		d.perRack[tree.RackOfServer(s)]++
		d.perPod[tree.PodOfServer(s)]++
	}
	return d
}
