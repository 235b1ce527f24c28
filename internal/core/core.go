// Package core is Silo's control plane: it couples a placement
// algorithm (admission control, §4.2) with hypervisor pacer
// configuration (§4.3). Admitting a tenant yields a handle carrying
// its placement and the per-VM pacer guarantees; deploying the handle
// onto a simulated network instantiates paced VMs on the right hosts
// and wires transport endpoints, exactly as the production system
// would configure its filter drivers. The same coupling runs every
// scheme of the paper's comparison (Scheme): what differs is the
// placer, the pacer guarantee and whether VMs are paced at all.
package core

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Controller is the control plane for one datacenter under one scheme.
type Controller struct {
	tree   *topology.Tree
	scheme Scheme
	algo   placement.Algorithm
	// mgr is algo when it is the Silo manager itself, nil otherwise.
	mgr    *placement.Manager
	nextID int

	handles map[int]*Handle
	// vmTenant maps every VM id Deploy has handed out to its tenant.
	vmTenant map[int]int
}

// Handle is an admitted tenant.
type Handle struct {
	Spec      tenant.Spec
	Placement *tenant.Placement
	// PacerGuarantee is the per-VM pacer configuration the scheme
	// derives from the tenant's network guarantee (zero when the scheme
	// does not pace).
	PacerGuarantee pacer.Guarantee
	// VMIDs are the globally unique VM identifiers assigned at
	// deployment and Endpoints the transport stacks, both in VM-index
	// order (empty until Deploy).
	VMIDs     []int
	Endpoints []*transport.Endpoint
}

// New returns a Silo controller over the datacenter.
func New(tree *topology.Tree, opts placement.Options) *Controller {
	return NewWith(tree, SchemeSilo, placement.NewManager(tree, opts))
}

// NewWith returns a controller that deploys under scheme and admits
// through algo — the scheme's own placer when algo is nil, otherwise
// the caller's (a durable wrapper around the Silo manager, or Silo
// placement under an unpaced scheme).
func NewWith(tree *topology.Tree, scheme Scheme, algo placement.Algorithm) *Controller {
	if algo == nil {
		algo = scheme.Placer(tree)
	}
	mgr, _ := algo.(*placement.Manager)
	return &Controller{
		tree:     tree,
		scheme:   scheme,
		algo:     algo,
		mgr:      mgr,
		handles:  make(map[int]*Handle),
		vmTenant: make(map[int]int),
	}
}

// Placer exposes the Silo placement manager (for instrumentation); nil
// when the controller admits through anything else.
func (c *Controller) Placer() *placement.Manager { return c.mgr }

// Algorithm returns the placement algorithm the controller admits
// through.
func (c *Controller) Algorithm() placement.Algorithm { return c.algo }

// Admit runs admission control for a tenant request. The returned
// handle's ID is assigned by the controller.
func (c *Controller) Admit(spec tenant.Spec) (*Handle, error) {
	c.nextID++
	spec.ID = c.nextID
	pl, err := c.algo.Place(spec)
	if err != nil {
		return nil, err
	}
	return c.Adopt(pl), nil
}

// Adopt registers a placement made elsewhere — a fixed testbed layout,
// the layout a fault recovery chose, or Algorithm().Place called with
// the caller's own numbering — under pl.Spec.ID. Adopting an ID again
// replaces its handle; VM ids deployed under the old one stay
// attributed to the tenant.
func (c *Controller) Adopt(pl *tenant.Placement) *Handle {
	h := &Handle{Spec: pl.Spec, Placement: pl}
	h.PacerGuarantee, _ = c.scheme.PacerGuarantee(pl.Spec.Guarantee)
	c.handles[pl.Spec.ID] = h
	return h
}

// Release removes an admitted tenant.
func (c *Controller) Release(h *Handle) error {
	if _, ok := c.handles[h.Spec.ID]; !ok {
		return fmt.Errorf("core: tenant %d not admitted", h.Spec.ID)
	}
	delete(c.handles, h.Spec.ID)
	return c.algo.Remove(h.Spec.ID)
}

// MessageLatencyBound returns the tenant's guaranteed message latency
// for a message of the given size (paper §4.1).
func (c *Controller) MessageLatencyBound(h *Handle, msgBytes int) float64 {
	return h.Spec.Guarantee.MessageLatencyBound(float64(msgBytes))
}

// TenantOfVM answers which tenant a deployed VM id belongs to.
func (c *Controller) TenantOfVM(vmID int) (tenantID int, ok bool) {
	tenantID, ok = c.vmTenant[vmID]
	return tenantID, ok
}

// Deploy instantiates the tenant on a simulated network: transport
// endpoints on each host per the placement, behind paced VMs when the
// scheme paces and the tenant is of the guaranteed class. vmIDBase
// must leave room for Spec.VMs consecutive IDs. Returns one endpoint
// per VM, in VM-index order.
func (c *Controller) Deploy(nw *netsim.Network, f *transport.Fabric, h *Handle, vmIDBase int, topt transport.Options) []*transport.Endpoint {
	topt.Paced = c.scheme.Paced() && h.Spec.Class == tenant.ClassGuaranteed
	if h.Spec.Class == tenant.ClassBestEffort {
		topt.Prio = netsim.PrioBestEffort
	}
	h.Endpoints = make([]*transport.Endpoint, h.Spec.VMs)
	h.VMIDs = make([]int, h.Spec.VMs)
	for i := 0; i < h.Spec.VMs; i++ {
		vmID := vmIDBase + i
		h.VMIDs[i] = vmID
		c.vmTenant[vmID] = h.Spec.ID
		hostID := h.Placement.Servers[i]
		host := nw.Hosts[hostID]
		if topt.Paced {
			if !host.Paced() {
				host.EnablePacing(pacer.NewBatcher(c.tree.Config().LinkBps))
			}
			host.AddVM(pacer.NewVM(vmID, h.PacerGuarantee, nw.Sim.Now()))
		}
		h.Endpoints[i] = f.AddEndpoint(vmID, hostID, topt)
	}
	return h.Endpoints
}

// CoordinateHose installs per-destination bucket rates for a static
// communication pattern, split max-min across the pattern's pairs —
// the converged state when every pair is backlogged (paper Figure 8
// top row; the production system runs this continuously like EyeQ —
// for the evaluation's static patterns a single round suffices).
func (c *Controller) CoordinateHose(nw *netsim.Network, h *Handle, pat workload.Pattern) {
	h.coordinate(nw, pat, false)
}

// CoordinateHosePeak allows each pair of the pattern the full
// min(B_src, B_dst) — the converged state under light, non-overlapping
// demand (request/response workloads), and the adversarial fixed point
// admission must absorb; the {B,S} bucket still enforces the aggregate.
func (c *Controller) CoordinateHosePeak(nw *netsim.Network, h *Handle, pat workload.Pattern) {
	h.coordinate(nw, pat, true)
}

func (h *Handle) coordinate(nw *netsim.Network, pat workload.Pattern, peak bool) {
	if len(h.VMIDs) == 0 {
		return
	}
	// The pattern's VM indices are the solver's own terms; it names
	// each pair once.
	flows := make([]pacer.Flow, 0, pat.Edges())
	for src, dsts := range pat {
		for _, dst := range dsts {
			flows = append(flows, pacer.Flow{Src: src, Dst: dst})
		}
	}
	b := h.Spec.Guarantee.BandwidthBps
	rates := make([]float64, len(flows))
	if peak {
		for i := range rates {
			rates[i] = b
		}
	} else {
		caps := make([]float64, len(h.VMIDs))
		for i := range caps {
			caps[i] = b
		}
		new(pacer.HoseKernel).Solve(caps, caps, flows, rates)
	}
	now := nw.Sim.Now()
	for i, fl := range flows {
		if vm, ok := h.vm(nw, h.VMIDs[fl.Src]); ok {
			vm.SetDestRate(now, h.VMIDs[fl.Dst], rates[i])
		}
	}
}

// vm finds the pacer VM behind one of the handle's VM ids (false on
// an unpaced deployment).
func (h *Handle) vm(nw *netsim.Network, vmID int) (*pacer.VM, bool) {
	i := vmID - h.VMIDs[0]
	if i < 0 || i >= len(h.VMIDs) {
		return nil, false
	}
	return nw.Hosts[h.Placement.Servers[i]].VM(vmID)
}

// StartHoseCoordination launches the dynamic EyeQ-style coordination
// loop for a deployed tenant: every epochNs the coordinator measures
// which VM pairs are active and retunes per-destination rates
// max-min; idle pairs revert to the full entitlement (paper §4.3).
// Static patterns converge in one epoch; shifting workloads track
// within an epoch. The loop runs until the simulation ends.
func (c *Controller) StartHoseCoordination(nw *netsim.Network, h *Handle, epochNs int64) *pacer.Coordinator {
	vms := make(map[int]*pacer.VM, len(h.VMIDs))
	for _, id := range h.VMIDs {
		if vm, ok := h.vm(nw, id); ok {
			vms[id] = vm
		}
	}
	coord := pacer.NewCoordinator(h.Spec.Guarantee.BandwidthBps, vms)
	var tick func()
	tick = func() {
		coord.Epoch(nw.Sim.Now())
		nw.Sim.After(epochNs, tick)
	}
	nw.Sim.After(0, tick)
	return coord
}
