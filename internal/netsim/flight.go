package netsim

import (
	"repro/internal/obs"
)

// AttachFlightRecorder records every lifecycle event of nw's sampled
// data packets into rec: VM pacer enqueue, token-bucket admit, per-port
// enqueue and transmit, final delivery. Void frames and packets without
// wire IDs are never recorded: voids carry no message, and an ID of 0
// cannot be attributed to a span. A nil recorder subscribes nothing.
func AttachFlightRecorder(nw *Network, rec *obs.FlightRecorder) {
	if rec == nil {
		return
	}
	sim := nw.Sim
	sim.Subscribe(func(ev Event) {
		p := ev.P
		if p.Void || p.ID == 0 || !rec.Sampled(p.ID) {
			return
		}
		switch ev.Kind {
		case EvPacedEnqueue:
			rec.Emit(obs.FlightVMEnqueue, sim.Now(), p.ID, int32(p.SrcVM), int64(p.Size), 0)
		case EvPacedWire:
			// The commit through the bucket chain happened earlier in
			// pacer time; the release stamp and gating bucket ride on the
			// packet so the admit event can be emitted here, where the
			// wire packet ID is in scope.
			rec.Emit(obs.FlightTokenAdmit, p.PacedRelease, p.ID, int32(p.SrcVM), 0, p.Gate)
		case EvPortEnqueue:
			rec.Emit(obs.FlightPortEnqueue, sim.Now(), p.ID, ev.At, ev.Arg, 0)
		case EvPortTransmit:
			rec.Emit(obs.FlightPortTx, sim.Now(), p.ID, ev.At, ev.Arg, 0)
		case EvDeliver:
			rec.Emit(obs.FlightDeliver, sim.Now(), p.ID, int32(p.DstVM), ev.Arg, 0)
		}
	}, EvPacedEnqueue, EvPacedWire, EvPortEnqueue, EvPortTransmit, EvDeliver)
}

// PortMeta exports the port table (name, rate, propagation) indexed by
// topology port ID, the side table span reassembly and the silo-trace
// CLI resolve hop records against.
func (nw *Network) PortMeta() []obs.PortMeta {
	out := make([]obs.PortMeta, len(nw.Queues))
	for pid, q := range nw.Queues {
		if q == nil {
			continue
		}
		out[pid] = obs.PortMeta{Name: q.Name, RateBps: q.RateBps, PropNs: q.PropNs}
	}
	return out
}

// AttachDelayAudit feeds every delivered data packet's NIC-to-NIC delay
// (delivery time minus the SentAt wire stamp) to a guarantee auditor,
// against the destination VM's tenant. tenantOf maps a VM id to its
// tenant id (ok=false skips the packet); it runs once per delivered
// packet, so it must not allocate — a range check or array lookup, not
// a map built per call.
//
// The auditor's per-tenant counts aggregate in place with zero
// allocation; per-packet hop records are the flight recorder's job
// (AttachFlightRecorder).
func (nw *Network) AttachDelayAudit(a *obs.GuaranteeAuditor, tenantOf func(vmID int) (tenantID int, ok bool)) {
	if a == nil {
		return
	}
	sim := nw.Sim
	sim.Subscribe(func(ev Event) {
		p := ev.P
		if id, ok := tenantOf(p.DstVM); ok {
			// Delivery time and endpoints ride along so a violation tap
			// can emit a fully-identified event.
			a.ObserveDelivery(id, p.DstVM, p.SrcVM, sim.Now(), ev.Arg)
		}
	}, EvDeliver)
}
