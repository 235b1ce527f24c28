package netsim

import (
	"context"
	"fmt"

	"repro/internal/topology"
)

// Options configures switch behaviour when instantiating a topology.
type Options struct {
	// PropNs is the per-link propagation delay (datacenter links are
	// short; a few hundred ns).
	PropNs int64
	// ECNThresholdBytes enables DCTCP-style marking at all switch
	// ports when > 0.
	ECNThresholdBytes int
	// PhantomGamma enables HULL phantom queues at all switch ports
	// when > 0 (drain rate = gamma × line rate).
	PhantomGamma float64
	// PhantomThresholdBytes is the phantom marking threshold (HULL
	// uses ~1 KB at 1 Gbps, scaled with rate).
	PhantomThresholdBytes float64
	// HostBufferBytes overrides the NIC queue buffer (defaults to the
	// topology's switch buffer; paced hosts need >= 2 batches).
	HostBufferBytes int
}

// Network is an instantiated packet-level datacenter.
type Network struct {
	// Sim is the event loop every host, port and switch runs on, and
	// the scheduling surface for experiment logic: fault schedules,
	// telemetry flushes, workload rounds.
	Sim   *Sim
	Tree  *topology.Tree
	Hosts []*Host
	// Queues maps topology directed-port IDs to simulator queues, so
	// experiments can compare analytic queue bounds against simulated
	// occupancy port by port.
	Queues []*Queue

	switches []*Switch
	core     *Switch
	podSw    []*Switch
	torSw    []*Switch
}

// TorSwitch returns rack r's ToR switch (for fault injection and
// inspection).
func (nw *Network) TorSwitch(r int) *Switch { return nw.torSw[r] }

// PodSwitch returns pod p's aggregation switch.
func (nw *Network) PodSwitch(p int) *Switch { return nw.podSw[p] }

// CoreSwitch returns the aggregated core switch.
func (nw *Network) CoreSwitch() *Switch { return nw.core }

// Run advances the network until every event drains or the clock
// passes until. Returns events executed.
func (nw *Network) Run(until int64) int { return nw.Sim.Run(until) }

// RunCtx is Run with cooperative cancellation.
func (nw *Network) RunCtx(ctx context.Context, until int64) int {
	return nw.Sim.RunCtx(ctx, until)
}

// Build instantiates the tree topology as a packet-level network on sim.
func Build(sim *Sim, tree *topology.Tree, opts Options) *Network {
	nw := &Network{
		Sim:    sim,
		Tree:   tree,
		Hosts:  make([]*Host, tree.Servers()),
		Queues: make([]*Queue, tree.NumPorts()),
	}

	mkQueue := func(port *topology.Port, name string, next Receiver) *Queue {
		buf := int(port.BufferBytes)
		q := NewQueue(sim, name, port.RateBps, buf, opts.PropNs, next)
		q.id = int32(port.ID)
		if opts.PhantomGamma > 0 {
			q.Phantom = NewPhantomQueue(opts.PhantomGamma*port.RateBps, opts.PhantomThresholdBytes)
		} else if opts.ECNThresholdBytes > 0 {
			q.ECNThresholdBytes = opts.ECNThresholdBytes
		}
		nw.Queues[port.ID] = q
		return q
	}

	for s := 0; s < tree.Servers(); s++ {
		nw.Hosts[s] = NewHost(sim, s)
	}

	// Core switch: one aggregated multi-root.
	core := &Switch{Name: "core", sim: sim}
	nw.core = core
	nw.switches = append(nw.switches, core)
	coreDown := make([]*Queue, tree.Pods())

	// Pod switches.
	podSw := make([]*Switch, tree.Pods())
	podUp := make([]*Queue, tree.Pods())
	podDown := make([]*Queue, tree.Racks())
	for p := 0; p < tree.Pods(); p++ {
		podSw[p] = &Switch{Name: fmt.Sprintf("pod%d", p), sim: sim}
		nw.switches = append(nw.switches, podSw[p])
	}
	nw.podSw = podSw

	// ToR switches.
	torSw := make([]*Switch, tree.Racks())
	torUp := make([]*Queue, tree.Racks())
	torDown := make([]*Queue, tree.Servers())
	for r := 0; r < tree.Racks(); r++ {
		torSw[r] = &Switch{Name: fmt.Sprintf("tor%d", r), sim: sim}
		nw.switches = append(nw.switches, torSw[r])
	}
	nw.torSw = torSw

	// Queues, wired bottom-up.
	for s := 0; s < tree.Servers(); s++ {
		r := tree.RackOfServer(s)
		// Host NIC -> ToR.
		nicPort := tree.ServerUpPort(s)
		nic := mkQueue(nicPort, fmt.Sprintf("nic%d", s), torSw[r])
		// A host's own NIC queue backpressures the stack rather than
		// dropping (qdisc semantics), so it is deep by default; the
		// pacer keeps it nearly empty on paced hosts regardless.
		nic.BufferBytes = 8 << 20
		if opts.HostBufferBytes > 0 {
			nic.BufferBytes = opts.HostBufferBytes
		}
		// The NIC itself never ECN-marks or phantom-marks.
		nic.ECNThresholdBytes = 0
		nic.Phantom = nil
		nw.Hosts[s].NIC = nic
		// ToR -> host.
		torDown[s] = mkQueue(tree.RackDownPort(s), fmt.Sprintf("tor%d->srv%d", r, s), nw.Hosts[s])
	}
	for r := 0; r < tree.Racks(); r++ {
		p := tree.PodOfRack(r)
		torUp[r] = mkQueue(tree.RackUpPort(r), fmt.Sprintf("tor%d->pod%d", r, p), podSw[p])
		podDown[r] = mkQueue(tree.PodDownPort(r), fmt.Sprintf("pod%d->tor%d", p, r), torSw[r])
	}
	for p := 0; p < tree.Pods(); p++ {
		podUp[p] = mkQueue(tree.PodUpPort(p), fmt.Sprintf("pod%d->core", p), core)
		coreDown[p] = mkQueue(tree.CoreDownPort(p), fmt.Sprintf("core->pod%d", p), podSw[p])
	}

	// Routing closures.
	for r := 0; r < tree.Racks(); r++ {
		r := r
		torSw[r].Route = func(dst int) *Queue {
			if dst < 0 || dst >= tree.Servers() {
				return nil
			}
			if tree.RackOfServer(dst) == r {
				return torDown[dst]
			}
			return torUp[r]
		}
	}
	for p := 0; p < tree.Pods(); p++ {
		p := p
		podSw[p].Route = func(dst int) *Queue {
			if dst < 0 || dst >= tree.Servers() {
				return nil
			}
			if tree.PodOfServer(dst) == p {
				return podDown[tree.RackOfServer(dst)]
			}
			return podUp[p]
		}
	}
	core.Route = func(dst int) *Queue {
		if dst < 0 || dst >= tree.Servers() {
			return nil
		}
		return coreDown[tree.PodOfServer(dst)]
	}
	return nw
}

// TotalDrops sums packet drops across all switch queues (NICs
// excluded: a correctly paced NIC never drops).
func (nw *Network) TotalDrops() int64 {
	var n int64
	for pid, q := range nw.Queues {
		if q == nil {
			continue
		}
		if nw.Tree.Port(pid).Level == topology.LevelServer {
			continue
		}
		n += q.Stats.DroppedPkts
	}
	return n
}

// TotalFaultDrops sums failure-caused packet losses fabric-wide: every
// port (NICs included — a failed host loses its egress queue), every
// switch transit drop, and every down-host ingress drop. Disjoint from
// TotalDrops, which counts congestion (buffer-overflow) loss only.
func (nw *Network) TotalFaultDrops() int64 {
	var n int64
	for _, q := range nw.Queues {
		if q == nil {
			continue
		}
		n += q.Stats.FaultDroppedPkts
	}
	for _, sw := range nw.switches {
		n += sw.Stats.FaultDroppedPkts
	}
	for _, h := range nw.Hosts {
		n += h.FaultDropped
	}
	return n
}

// TotalVoidsDropped sums void frames absorbed by first-hop switches.
func (nw *Network) TotalVoidsDropped() int64 {
	var n int64
	for _, sw := range nw.switches {
		n += sw.Stats.VoidDropped
	}
	return n
}

// SentDataBytes sums non-void bytes serialized by all ToR->host ports
// (a proxy for goodput delivered to hosts).
func (nw *Network) SentDataBytes() int64 {
	var n int64
	for s := 0; s < nw.Tree.Servers(); s++ {
		n += nw.Queues[nw.Tree.RackDownPort(s).ID].Stats.SentBytes
	}
	return n
}
