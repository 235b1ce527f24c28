package pacer

import (
	"cmp"
	"slices"
)

// Coordinator implements the dynamic, EyeQ-style sender/receiver rate
// negotiation of paper §4.3: each epoch it observes which VM pairs are
// actually exchanging traffic (queued bytes or bytes sent since the
// last epoch), computes a max-min fair split of the hose guarantees
// over those ACTIVE pairs, and retunes the per-destination buckets.
// Pairs with no demand keep the full min(B_src, B_dst) rate, so a
// fresh burst is never throttled below its entitlement while the
// coordination loop catches up — the burst allowance absorbs the
// transient, which is exactly its job.
type Coordinator struct {
	// vms holds the tenant's pacers in ascending VM id, so an epoch
	// measures pairs and retunes buckets in one fixed order; index maps
	// a VM id to its position there, which is also its index in caps.
	vms   []*VM
	index map[int]int
	// b is the tenant's per-VM hose guarantee (bytes/sec); caps holds it
	// once per VM, the kernel's sender and receiver caps alike.
	b    float64
	caps []float64

	// DemandAware, when set, uses EyeQ's demand-capped max-min: each
	// active flow's rate also freezes at its measured demand
	// (observed rate plus backlog, times DemandHeadroom), so light
	// flows leave their share to backlogged ones.
	DemandAware bool
	// DemandHeadroom multiplies measured demand (default 2: a flow may
	// double its rate between epochs without waiting for the loop).
	DemandHeadroom float64

	// lastSent[i][k] is the byte count vms[i] had committed toward its
	// k-th destination (VM.dests only grows) at the last epoch.
	lastSent  [][]int64
	lastEpoch int64

	// The epoch's scratch: active pairs as positions in vms, their
	// demands and rates, and the solver's own.
	kernel        HoseKernel
	active        []Flow
	demand, rates []float64
}

// NewCoordinator returns a coordinator over one tenant's paced VMs.
// All VMs share the hose guarantee b (the paper's per-tenant B).
func NewCoordinator(b float64, vms map[int]*VM) *Coordinator {
	c := &Coordinator{b: b, DemandHeadroom: 2, index: make(map[int]int, len(vms))}
	for _, vm := range vms {
		c.vms = append(c.vms, vm)
	}
	slices.SortFunc(c.vms, func(a, b *VM) int { return cmp.Compare(a.ID, b.ID) })
	for i, vm := range c.vms {
		c.index[vm.ID] = i
		c.caps = append(c.caps, b)
	}
	c.lastSent = make([][]int64, len(c.vms))
	return c
}

// Epoch runs one coordination round at time now: measure demand,
// allocate, retune buckets. Returns the number of active flows.
func (c *Coordinator) Epoch(now int64) int {
	epochSec := float64(now-c.lastEpoch) / 1e9
	c.lastEpoch = now
	headroom := c.DemandHeadroom
	if headroom <= 1 {
		headroom = 2
	}
	active, demand := c.active[:0], c.demand[:0]
	for i, vm := range c.vms {
		for k, d := range vm.dests {
			if k == len(c.lastSent[i]) {
				c.lastSent[i] = append(c.lastSent[i], 0)
			}
			j, intra := c.index[d.id]
			if !intra {
				// Traffic leaving the tenant is not hose-coordinated
				// here (inter-tenant traffic is bounded by {B,S}).
				continue
			}
			delta := d.sentBytes - c.lastSent[i][k]
			c.lastSent[i][k] = d.sentBytes
			if delta <= 0 && d.queuedBytes <= 0 {
				// Idle pairs revert to the full hose entitlement so a
				// new burst is not held to a stale share.
				vm.SetDestRate(now, d.id, c.b)
				continue
			}
			active = append(active, Flow{Src: i, Dst: j})
			if c.DemandAware && epochSec > 0 {
				demand = append(demand, headroom*float64(delta+d.queuedBytes)/epochSec)
			}
		}
	}
	c.active, c.demand, c.rates = active, demand, slices.Grow(c.rates[:0], len(active))[:len(active)]
	if len(demand) == 0 {
		demand = nil // no window to measure in: plain max-min
	}
	c.kernel.Solve(c.caps, c.caps, active, demand, c.rates)
	for n, f := range active {
		c.vms[f.Src].SetDestRate(now, c.vms[f.Dst].ID, c.rates[n])
	}
	return len(active)
}
