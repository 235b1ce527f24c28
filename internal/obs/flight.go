package obs

// Flight recorder: a fixed-size ring of binary trace events
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
// written to it.
type flightShard struct {
	pos uint64
	buf []FlightEvent
}

// FlightRecorder records sampled packet lifecycle events into
// fixed-size rings. A nil recorder is fully disabled.
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
// does not re-check, so unsampled direct emission is possible. Zero
// allocations.
func (r *FlightRecorder) Emit(kind uint8, t int64, pkt uint64, port int32, arg int64, gate uint8) {
	if r == nil {
		return
	}
	s := &r.shards[flightHash(pkt)]
	s.buf[s.pos&r.mask] = FlightEvent{T: t, Pkt: pkt, Arg: arg, Port: port, Kind: kind, Gate: gate}
	s.pos++
}

// Emitted returns the total number of events written (including any
// that have since been overwritten).
func (r *FlightRecorder) Emitted() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.shards {
		n += int64(r.shards[i].pos)
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
		if pos := r.shards[i].pos; pos > r.mask+1 {
			n += int64(pos - (r.mask + 1))
		}
	}
	return n
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
