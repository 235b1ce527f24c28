package netsim

import (
	"repro/internal/obs"
)

// FlightTap wires an obs.FlightRecorder into every lifecycle point of a
// network — VM pacer enqueue, token-bucket admit, per-port enqueue and
// transmit, final delivery — chaining with (never replacing) hooks
// already installed, the same discipline AttachDelayAudit follows, so
// both can observe one run simultaneously. Detach restores exactly the
// hooks found at attach time.
//
// Void frames and packets without wire IDs are never recorded: voids
// carry no message, and an ID of 0 cannot be attributed to a span.
type FlightTap struct {
	nw  *Network
	rec *obs.FlightRecorder

	prevEnqueue  []func(p *Packet, occupied int)
	prevTransmit []func(p *Packet, serNs int64)
	prevDeliver  []func(p *Packet, delayNs int64)
	prevPaced    []func(p *Packet)
	prevWire     []func(p *Packet)
	attached     bool
}

// AttachFlightRecorder instruments every port and host of nw with rec.
// A nil recorder still chains valid hooks (each emit site then costs
// one branch), so callers need not special-case disabled tracing.
func AttachFlightRecorder(nw *Network, rec *obs.FlightRecorder) *FlightTap {
	t := &FlightTap{
		nw:           nw,
		rec:          rec,
		prevEnqueue:  make([]func(*Packet, int), len(nw.Queues)),
		prevTransmit: make([]func(*Packet, int64), len(nw.Queues)),
		prevDeliver:  make([]func(*Packet, int64), len(nw.Hosts)),
		prevPaced:    make([]func(*Packet), len(nw.Hosts)),
		prevWire:     make([]func(*Packet), len(nw.Hosts)),
		attached:     true,
	}

	for pid, q := range nw.Queues {
		if q == nil {
			continue
		}
		q := q
		pid32 := int32(pid)
		prevEnq := q.OnEnqueue
		t.prevEnqueue[pid] = prevEnq
		q.OnEnqueue = func(p *Packet, occupied int) {
			if prevEnq != nil {
				prevEnq(p, occupied)
			}
			if p.Void || p.ID == 0 || !rec.Sampled(p.ID) {
				return
			}
			rec.Emit(obs.FlightPortEnqueue, q.sim.Now(), p.ID, pid32, int64(occupied), 0)
		}
		prevTx := q.OnTransmit
		t.prevTransmit[pid] = prevTx
		q.OnTransmit = func(p *Packet, serNs int64) {
			if prevTx != nil {
				prevTx(p, serNs)
			}
			if p.Void || p.ID == 0 || !rec.Sampled(p.ID) {
				return
			}
			rec.Emit(obs.FlightPortTx, q.sim.Now(), p.ID, pid32, serNs, 0)
		}
	}

	for hid, h := range nw.Hosts {
		h := h
		prevDel := h.OnDeliver
		t.prevDeliver[hid] = prevDel
		h.OnDeliver = func(p *Packet, delayNs int64) {
			if prevDel != nil {
				prevDel(p, delayNs)
			}
			if p.ID == 0 || !rec.Sampled(p.ID) {
				return
			}
			rec.Emit(obs.FlightDeliver, h.sim.Now(), p.ID, int32(p.DstVM), delayNs, 0)
		}
		prevPaced := h.OnPacedEnqueue
		t.prevPaced[hid] = prevPaced
		h.OnPacedEnqueue = func(p *Packet) {
			if prevPaced != nil {
				prevPaced(p)
			}
			if p.Void || p.ID == 0 || !rec.Sampled(p.ID) {
				return
			}
			rec.Emit(obs.FlightVMEnqueue, h.sim.Now(), p.ID, int32(p.SrcVM), int64(p.Size), 0)
		}
		prevWire := h.OnPacedWire
		t.prevWire[hid] = prevWire
		h.OnPacedWire = func(p *Packet) {
			if prevWire != nil {
				prevWire(p)
			}
			if p.Void || p.ID == 0 || !rec.Sampled(p.ID) {
				return
			}
			// The commit through the bucket chain happened earlier in
			// pacer time; the release stamp and gating bucket ride on
			// the packet so the admit event can be emitted here, where
			// the wire packet ID is in scope.
			rec.Emit(obs.FlightTokenAdmit, p.PacedRelease, p.ID, int32(p.SrcVM), 0, p.Gate)
		}
	}
	return t
}

// Recorder returns the attached recorder (nil when tracing is off).
func (t *FlightTap) Recorder() *obs.FlightRecorder { return t.rec }

// Detach restores the hooks that were installed before
// AttachFlightRecorder ran. Taps and tracers detach correctly in LIFO
// order (the order their closures nest in).
func (t *FlightTap) Detach() {
	if !t.attached {
		return
	}
	t.attached = false
	for pid, q := range t.nw.Queues {
		if q == nil {
			continue
		}
		q.OnEnqueue = t.prevEnqueue[pid]
		q.OnTransmit = t.prevTransmit[pid]
	}
	for hid, h := range t.nw.Hosts {
		h.OnDeliver = t.prevDeliver[hid]
		h.OnPacedEnqueue = t.prevPaced[hid]
		h.OnPacedWire = t.prevWire[hid]
	}
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
