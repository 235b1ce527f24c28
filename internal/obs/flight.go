package obs

import "repro/internal/netsim"

// Flight recorder: a bounded ring of binary trace events for end-to-end
// per-packet latency attribution. Where the guarantee audit (audit.go)
// aggregates in place, the flight recorder keeps the most recent window
// of raw lifecycle events — VM enqueue, token-bucket admit, wire
// departure, per-port enqueue/transmit, delivery — in fixed-size
// records, so a crash, a d-violation, or an end-of-run export always
// has the exact recent history to attribute, at a cost the pacing hot
// path can afford.
//
// Design rules, matching the package's (obs.go):
//
//  1. Zero allocations per event once the ring is full. Records are
//     fixed-size structs; the ring starts empty and grows on the emit
//     that finds it full (to flightFirstRing records, then doubling up
//     to its capacity), so a short run pays for the events it records,
//     not for the capacity. A full ring wraps in place.
//  2. Nil-safe. A nil *FlightRecorder disables every emit site at one
//     branch; Sampled on a nil recorder reports false so callers can
//     gate whole event bundles on a single check.
//  3. One ring, in emission order. The simulation emits from one
//     goroutine, so a wrap keeps one window of the most recent events,
//     each packet's in the order they happened — exactly what span
//     reassembly needs.
//
// Reassembly detects packets whose early events were overwritten and
// marks their spans incomplete; attribution only trusts complete spans.
// The recorder is not safe for concurrent use: the simulation goroutine
// emits, and the harness reads after the run.

// Flight event kinds, in lifecycle order.
const (
	// FlightVMEnqueue: a data packet entered its VM's pacer queue.
	// Port = source VM ID, Arg = wire bytes.
	FlightVMEnqueue uint8 = 1
	// FlightTokenAdmit: the token-bucket chain committed the packet.
	// T = the committed release stamp, Gate = the bucket that
	// determined it (see the pacer's Gate* constants).
	FlightTokenAdmit uint8 = 2
	// FlightPortEnqueue: the packet arrived at a directed port.
	// Port = topology port ID, Arg = queue bytes found on arrival.
	FlightPortEnqueue uint8 = 3
	// FlightPortTx: the port began serializing the packet.
	// Port = topology port ID, Arg = serialization nanoseconds.
	FlightPortTx uint8 = 4
	// FlightDeliver: the destination host delivered the packet.
	// Port = destination VM ID, Arg = measured NIC-to-NIC delay (ns).
	FlightDeliver uint8 = 5
)

// FlightEvent is one fixed-size binary trace record (32 bytes).
type FlightEvent struct {
	// T is the event time in simulation nanoseconds.
	T int64
	// Pkt is the wire packet ID the event belongs to.
	Pkt uint64
	// Arg is the kind-specific payload (see the kind constants).
	Arg int64
	// Port is the kind-specific small ID (port, VM).
	Port int32
	// Kind is the event kind.
	Kind uint8
	// Gate is the gating token bucket for FlightTokenAdmit, 0 otherwise.
	Gate uint8
	_    [2]byte
}

// flightFirstRing is the ring the recorder allocates on its first event.
const flightFirstRing = 256

// FlightRecorder records sampled packet lifecycle events into a ring of
// a fixed capacity. A nil recorder is fully disabled.
type FlightRecorder struct {
	// pos counts the events ever written; until the ring wraps, buf
	// holds at least pos events.
	pos        uint64
	buf        []FlightEvent
	mask       uint64 // ring index mask (capacity - 1)
	sampleMask uint64 // packet is sampled iff ID & sampleMask == 0
}

// DefaultFlightEvents is the default ring capacity: at ~7 events per
// delivered packet this window holds the last ~37k sampled packets
// (8 MB once the ring is full).
const DefaultFlightEvents = 1 << 18

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) uint64 {
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return p
}

// NewFlightRecorder returns a recorder keeping the most recent events
// (rounded up to a power of two; <= 0 selects DefaultFlightEvents)
// records and sampling one packet in sampleN (rounded up to a power of
// two; <= 1 records every packet).
func NewFlightRecorder(events, sampleN int) *FlightRecorder {
	if events <= 0 {
		events = DefaultFlightEvents
	}
	r := &FlightRecorder{mask: ceilPow2(events) - 1}
	if sampleN > 1 {
		r.sampleMask = ceilPow2(sampleN) - 1
	}
	return r
}

// SampleN reports the effective sampling divisor (1 = every packet,
// 0 for a nil recorder).
func (r *FlightRecorder) SampleN() int {
	if r == nil {
		return 0
	}
	return int(r.sampleMask + 1)
}

// Sampled reports whether events for this packet ID should be emitted.
// All emit sites for one packet agree, so sampled packets always have
// complete lifecycles. A nil recorder samples nothing.
func (r *FlightRecorder) Sampled(pkt uint64) bool {
	return r != nil && pkt&r.sampleMask == 0
}

// Emit appends one event. Callers gate on Sampled first; Emit itself
// does not re-check, so unsampled direct emission is possible. Zero
// allocations, except on the emit that finds the ring full before it
// has reached its capacity.
func (r *FlightRecorder) Emit(kind uint8, t int64, pkt uint64, port int32, arg int64, gate uint8) {
	if r == nil {
		return
	}
	i := r.pos & r.mask
	if i >= uint64(len(r.buf)) {
		// Double the ring (to at least flightFirstRing events, at most
		// its capacity), keeping its events in place: only a ring that
		// has not wrapped grows, so pos still indexes it directly.
		buf := make([]FlightEvent, min(max(2*uint64(len(r.buf)), flightFirstRing), r.mask+1))
		copy(buf, r.buf)
		r.buf = buf
	}
	r.buf[i] = FlightEvent{T: t, Pkt: pkt, Arg: arg, Port: port, Kind: kind, Gate: gate}
	r.pos++
}

// Events snapshots the retained events, oldest first.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	out := make([]FlightEvent, 0, min(r.pos, r.mask+1))
	if r.pos > r.mask+1 { // wrapped: the oldest event sits at the cursor
		at := r.pos & r.mask
		return append(append(out, r.buf[at:]...), r.buf[:at]...)
	}
	return append(out, r.buf[:r.pos]...)
}

// AttachFlightRecorder records every lifecycle event of nw's sampled
// data packets into rec: VM pacer enqueue, token-bucket admit, per-port
// enqueue and transmit, final delivery. Void frames and packets without
// wire IDs are never recorded: voids carry no message, and an ID of 0
// cannot be attributed to a span. A nil recorder subscribes nothing.
//
// Each kind has its own subscriber, which drops an unsampled packet
// before anything else: a run pays one inlined test per event for the
// packets it does not record, not a dispatch on the kind.
func AttachFlightRecorder(nw *netsim.Network, rec *FlightRecorder) {
	if rec == nil {
		return
	}
	sim := nw.Sim
	sim.Subscribe(func(ev netsim.Event) {
		if p := ev.P; rec.records(p) {
			rec.Emit(FlightVMEnqueue, sim.Now(), p.ID, int32(p.SrcVM), int64(p.Size), 0)
		}
	}, netsim.EvPacedEnqueue)
	sim.Subscribe(func(ev netsim.Event) {
		// The commit through the bucket chain happened earlier in pacer
		// time; the release stamp and gating bucket ride on the packet so
		// the admit event can be emitted here, where the wire packet ID
		// is in scope.
		if p := ev.P; rec.records(p) {
			rec.Emit(FlightTokenAdmit, p.PacedRelease, p.ID, int32(p.SrcVM), 0, p.Gate)
		}
	}, netsim.EvPacedWire)
	sim.Subscribe(func(ev netsim.Event) {
		if p := ev.P; rec.records(p) {
			rec.Emit(FlightPortEnqueue, sim.Now(), p.ID, ev.At, ev.Arg, 0)
		}
	}, netsim.EvPortEnqueue)
	sim.Subscribe(func(ev netsim.Event) {
		if p := ev.P; rec.records(p) {
			rec.Emit(FlightPortTx, sim.Now(), p.ID, ev.At, ev.Arg, 0)
		}
	}, netsim.EvPortTransmit)
	sim.Subscribe(func(ev netsim.Event) {
		if p := ev.P; rec.records(p) {
			rec.Emit(FlightDeliver, sim.Now(), p.ID, int32(p.DstVM), ev.Arg, 0)
		}
	}, netsim.EvDeliver)
}

// records reports whether r keeps p's events: a sampled data packet
// with a wire ID.
func (r *FlightRecorder) records(p *netsim.Packet) bool {
	return !p.Void && p.ID != 0 && r.Sampled(p.ID)
}
