package obs

import "sync/atomic"

// Flight recorder: a lock-free, fixed-size ring of binary trace events
// for end-to-end per-packet latency attribution. Where the metrics core
// (obs.go) aggregates in place, the flight recorder keeps the most
// recent window of raw lifecycle events — VM enqueue, token-bucket
// admit, wire departure, per-port enqueue/transmit, delivery — in
// preallocated fixed-size records, so a crash, a d-violation, or an
// end-of-run export always has the exact recent history to attribute,
// at a cost the pacing hot path can afford.
//
// Design rules, matching the metrics core:
//
//  1. Zero allocations per event. Records are fixed-size structs
//     written into rings preallocated at construction.
//  2. Nil-safe. A nil *FlightRecorder disables every emit site at one
//     branch; Sampled on a nil recorder reports false so callers can
//     gate whole event bundles on a single check.
//  3. Lock-free. Each ring shard has one atomic cursor; an emit is one
//     atomic add plus a struct store. Shards are selected by packet ID
//     hash, which both spreads concurrent emitters (one worker per
//     shard in the parallel drivers) and keeps all events of one
//     packet in a single shard, in emission order — exactly what span
//     reassembly needs.
//
// The ring overwrites its oldest events when full. Reassembly detects
// packets whose early events were overwritten and marks their spans
// incomplete; attribution only trusts complete spans.

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

// flightShards spreads emitters; 4 matches the histogram sharding and
// the repository's driver concurrency.
const flightShards = 4

// flightShard is one ring with its cursor on a dedicated cache line.
type flightShard struct {
	pos atomic.Uint64
	_   [56]byte
	buf []FlightEvent
}

// FlightRecorder records sampled packet lifecycle events into
// fixed-size lock-free rings. A nil recorder is fully disabled.
type FlightRecorder struct {
	shards     [flightShards]flightShard
	mask       uint64 // ring index mask (per-shard capacity - 1)
	sampleMask uint64 // packet is sampled iff ID & sampleMask == 0
}

// DefaultFlightEvents is the default per-shard ring capacity: at ~7
// events per delivered packet this window holds the last ~37k sampled
// packets across the four shards (8 MB total).
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
	capacity := ceilPow2(perShardEvents)
	r := &FlightRecorder{mask: capacity - 1}
	if sampleN > 1 {
		r.sampleMask = ceilPow2(sampleN) - 1
	}
	for i := range r.shards {
		r.shards[i].buf = make([]FlightEvent, capacity)
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
// does not re-check, so unsampled direct emission is possible (the
// Figure-10 microbenchmark uses this). Zero allocations; safe for
// concurrent use — distinct packets hash to independent shards and a
// slot collision requires two in-flight emits a full ring lap apart.
func (r *FlightRecorder) Emit(kind uint8, t int64, pkt uint64, port int32, arg int64, gate uint8) {
	if r == nil {
		return
	}
	s := &r.shards[flightHash(pkt)]
	i := s.pos.Add(1) - 1
	s.buf[i&r.mask] = FlightEvent{T: t, Pkt: pkt, Arg: arg, Port: port, Kind: kind, Gate: gate}
}

// Emitted returns the total number of events written (including any
// that have since been overwritten).
func (r *FlightRecorder) Emitted() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.shards {
		n += int64(r.shards[i].pos.Load())
	}
	return n
}

// Overwritten returns how many events the rings have discarded.
func (r *FlightRecorder) Overwritten() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.shards {
		if pos := r.shards[i].pos.Load(); pos > r.mask+1 {
			n += int64(pos - (r.mask + 1))
		}
	}
	return n
}

// Events snapshots the retained events, oldest first within each
// shard. Per-packet order is exact (a packet's events share a shard);
// cross-packet order is per-shard. Call after the run completes — a
// snapshot concurrent with emitters may tear the slot being written.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	var pos [flightShards]uint64
	total := uint64(0)
	for i := range r.shards {
		pos[i] = r.shards[i].pos.Load()
		total += min(pos[i], r.mask+1)
	}
	out := make([]FlightEvent, 0, total)
	for i := range r.shards {
		buf := r.shards[i].buf
		if pos[i] > r.mask+1 { // wrapped: the oldest event sits at the cursor
			at := pos[i] & r.mask
			out = append(append(out, buf[at:]...), buf[:at]...)
		} else {
			out = append(out, buf[:pos[i]]...)
		}
	}
	return out
}
