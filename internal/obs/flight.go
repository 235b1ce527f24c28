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
//  1. Zero allocations per event once a ring is full. Records are
//     fixed-size structs; each shard's ring starts empty and grows on
//     the emit that finds it full (to flightFirstRing records, then
//     doubling up to its capacity), so a short run pays for the events
//     it records, not for the capacity. A full ring wraps in place.
//  2. Nil-safe. A nil *FlightRecorder disables every emit site at one
//     branch; Sampled on a nil recorder reports false so callers can
//     gate whole event bundles on a single check.
//  3. Sharded by packet. Shards are selected by packet ID hash, which
//     keeps all events of one packet in a single shard, in emission
//     order — exactly what span reassembly needs.
//
// Each shard overwrites its own oldest events when full, so the shard
// count decides which events survive a wrap. Reassembly detects packets
// whose early events were overwritten and marks their spans incomplete;
// attribution only trusts complete spans. The recorder is not safe for
// concurrent use: the simulation goroutine emits, and the harness reads
// after the run.

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

// flightShards is the ring count; traces written at the default
// capacity depend on it, because it decides which events a wrap keeps.
const flightShards = 4

// flightShard is one ring and its cursor: the number of events ever
// written to it. Until the ring wraps, buf holds at least pos events.
type flightShard struct {
	pos uint64
	buf []FlightEvent
}

// flightFirstRing is the ring a shard allocates on its first event.
const flightFirstRing = 256

// grow doubles the ring (to at least flightFirstRing events, at most
// capacity), keeping its events in place. Only a ring that has not yet
// wrapped grows, so its cursor still indexes it directly.
func (s *flightShard) grow(capacity uint64) {
	buf := make([]FlightEvent, min(max(2*uint64(len(s.buf)), flightFirstRing), capacity))
	copy(buf, s.buf)
	s.buf = buf
}

// FlightRecorder records sampled packet lifecycle events into rings of
// a fixed capacity. A nil recorder is fully disabled.
type FlightRecorder struct {
	shards     [flightShards]flightShard
	mask       uint64 // ring index mask (per-shard capacity - 1)
	sampleMask uint64 // packet is sampled iff ID & sampleMask == 0
}

// DefaultFlightEvents is the default per-shard ring capacity: at ~7
// events per delivered packet this window holds the last ~37k sampled
// packets across the four shards (8 MB once every ring is full).
const DefaultFlightEvents = 1 << 16

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) uint64 {
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return p
}

// NewFlightRecorder returns a recorder keeping perShardEvents (rounded
// up to a power of two; <= 0 selects DefaultFlightEvents) events per
// shard and sampling one packet in sampleN (rounded up to a power of
// two; <= 1 records every packet).
func NewFlightRecorder(perShardEvents, sampleN int) *FlightRecorder {
	if perShardEvents <= 0 {
		perShardEvents = DefaultFlightEvents
	}
	r := &FlightRecorder{mask: ceilPow2(perShardEvents) - 1}
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

// flightHash mixes a packet ID so that sampled IDs (multiples of the
// sampling divisor) still spread across shards.
func flightHash(pkt uint64) uint64 {
	return (pkt * 0x9e3779b97f4a7c15) >> 62
}

// Emit appends one event. Callers gate on Sampled first; Emit itself
// does not re-check, so unsampled direct emission is possible. Zero
// allocations, except on the emit that finds a ring full before it has
// reached its capacity.
func (r *FlightRecorder) Emit(kind uint8, t int64, pkt uint64, port int32, arg int64, gate uint8) {
	if r == nil {
		return
	}
	s := &r.shards[flightHash(pkt)]
	i := s.pos & r.mask
	if i >= uint64(len(s.buf)) {
		s.grow(r.mask + 1)
	}
	s.buf[i] = FlightEvent{T: t, Pkt: pkt, Arg: arg, Port: port, Kind: kind, Gate: gate}
	s.pos++
}

// Events snapshots the retained events, oldest first within each
// shard. Per-packet order is exact (a packet's events share a shard);
// cross-packet order is per-shard.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	total := uint64(0)
	for i := range r.shards {
		total += min(r.shards[i].pos, r.mask+1)
	}
	out := make([]FlightEvent, 0, total)
	for i := range r.shards {
		s := &r.shards[i]
		if s.pos > r.mask+1 { // wrapped: the oldest event sits at the cursor
			at := s.pos & r.mask
			out = append(append(out, s.buf[at:]...), s.buf[:at]...)
		} else {
			out = append(out, s.buf[:s.pos]...)
		}
	}
	return out
}

// AttachFlightRecorder records every lifecycle event of nw's sampled
// data packets into rec: VM pacer enqueue, token-bucket admit, per-port
// enqueue and transmit, final delivery. Void frames and packets without
// wire IDs are never recorded: voids carry no message, and an ID of 0
// cannot be attributed to a span. A nil recorder subscribes nothing.
func AttachFlightRecorder(nw *netsim.Network, rec *FlightRecorder) {
	if rec == nil {
		return
	}
	sim := nw.Sim
	sim.Subscribe(func(ev netsim.Event) {
		p := ev.P
		if p.Void || p.ID == 0 || !rec.Sampled(p.ID) {
			return
		}
		switch ev.Kind {
		case netsim.EvPacedEnqueue:
			rec.Emit(FlightVMEnqueue, sim.Now(), p.ID, int32(p.SrcVM), int64(p.Size), 0)
		case netsim.EvPacedWire:
			// The commit through the bucket chain happened earlier in
			// pacer time; the release stamp and gating bucket ride on the
			// packet so the admit event can be emitted here, where the
			// wire packet ID is in scope.
			rec.Emit(FlightTokenAdmit, p.PacedRelease, p.ID, int32(p.SrcVM), 0, p.Gate)
		case netsim.EvPortEnqueue:
			rec.Emit(FlightPortEnqueue, sim.Now(), p.ID, ev.At, ev.Arg, 0)
		case netsim.EvPortTransmit:
			rec.Emit(FlightPortTx, sim.Now(), p.ID, ev.At, ev.Arg, 0)
		case netsim.EvDeliver:
			rec.Emit(FlightDeliver, sim.Now(), p.ID, int32(p.DstVM), ev.Arg, 0)
		}
	}, netsim.EvPacedEnqueue, netsim.EvPacedWire, netsim.EvPortEnqueue, netsim.EvPortTransmit, netsim.EvDeliver)
}
