package experiments

import (
	"repro/internal/netsim"
	"repro/internal/transport"
)

// startDriver starts the tenant's generator (internal/workload has the
// four traffic patterns) on its current deployment. restarted is true
// after a recovery re-deploy: a burst driver then starts now, without
// a phase, and its first completed message marks the tenant recovered.
func (r *Run) startDriver(tr *TenantRun, restarted bool) {
	d, h, sim, horizon := tr.Tenant.Driver, tr.Handle, r.Net.Sim, r.Scenario.HorizonNs
	switch d.Kind {
	case DriverOLDI:
		rng := r.rng
		if d.SplitRand {
			rng = rng.Split()
		}
		tr.OLDI(sim, rng, h.Endpoints[1:], h.VMIDs[0], d.MsgBytes, h.Spec.Guarantee.BandwidthBps, horizon)
	case DriverShuffle:
		tr.Shuffle(sim, h.Endpoints, h.VMIDs, h.Placement.Servers, d.MsgBytes, horizon)
	case DriverETC:
		tr.ETC(sim, r.rng, h.Endpoints[0], h.Endpoints[1:], d.TargetBps, horizon)
	case DriverBurst:
		servers := h.Placement.Servers
		var senders []*transport.Endpoint
		for i, ep := range h.Endpoints[1:] {
			if !d.RemoteOnly || servers[i+1] != servers[0] {
				senders = append(senders, ep)
			}
		}
		start, done := sim.Now(), tr.Record
		if restarted {
			done = func(m *transport.Message) {
				tr.Record(m)
				if tr.RecoveredAtNs < 0 {
					tr.RecoveredAtNs = sim.Now()
				}
			}
		} else if d.RandomPhase {
			start += int64(r.rng.Intn(int(d.PeriodNs)))
		}
		epoch := tr.epoch // a recovery re-deploy supersedes this placement
		tr.Burst(sim, senders, h.VMIDs[0], d.MsgBytes, start, d.PeriodNs, horizon,
			func() bool { return tr.epoch == epoch }, done)
	}
}

// fireResync sends ResyncBytes of raw back-to-back 1500 B frames to
// (dstHost, dstVM) from the ResyncSources lowest-numbered surviving
// hosts outside the destination's rack — the bulk state transfer that
// rebuilds a relocated VM. Unpaced by design (it is infrastructure
// traffic, not tenant hose traffic): the convergent storm queues at the
// oversubscribed uplinks, and the deliveries that arrive past the
// tenant's bound are exactly the violations the SLO engine must pin on
// the outage.
func (r *Run) fireResync(dstHost, dstVM int) {
	dstRack := r.Tree.RackOfServer(dstHost)
	picked := 0
	for s := 0; s < r.Tree.Servers() && picked < r.Scenario.ResyncSources; s++ {
		if s == dstHost || r.Manager.ServerFailed(s) || r.Tree.RackOfServer(s) == dstRack {
			continue
		}
		for sent := 0; sent < r.Scenario.ResyncBytes; sent += 1500 {
			r.Net.Hosts[s].Send(&netsim.Packet{Src: s, Dst: dstHost, SrcVM: -1, DstVM: dstVM, Size: 1500})
		}
		picked++
	}
}
