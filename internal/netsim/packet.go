package netsim

// Priority classes (802.1q mapping, paper §4.4): guaranteed tenants
// ride high priority, best-effort tenants low.
const (
	PrioGuaranteed = 0
	PrioBestEffort = 1
	numPrios       = 2
)

// Packet is one frame in flight.
type Packet struct {
	ID uint64
	// Src and Dst are host IDs; SrcVM and DstVM identify the endpoints
	// for transport demux and hose accounting.
	Src, Dst     int
	SrcVM, DstVM int
	// Size is the wire size in bytes (headers included).
	Size int
	// Prio selects the 802.1q class.
	Prio int
	// Void marks a pacer spacer frame; the first switch drops it.
	Void bool
	// ECNCapable marks ECT packets (DCTCP/HULL); CE is the congestion
	// mark set by switches.
	ECNCapable, CE bool
	// SentAt is the time the first byte left the source NIC queue
	// entry point (set by Host.inject); used for NIC-to-NIC delay.
	SentAt int64
	// PacedRelease is the pacer's release stamp for paced packets
	// (0 for unpaced); SentAt − PacedRelease is the pacing error.
	PacedRelease int64
	// Gate is the token bucket that determined PacedRelease (the
	// pacer's Gate* constants; 0 for unpaced packets or packets that
	// were immediately feasible). Flight-recorder attribution reads it.
	Gate uint8
	// pooled marks a live arena packet: set by AllocPacket, cleared by
	// FreePacket.
	pooled bool
	// Payload carries the transport segment.
	Payload interface{}

	// next links free packets in a Sim's arena (see Sim.AllocPacket).
	next *Packet
}

// Counters aggregates per-queue statistics.
type Counters struct {
	EnqueuedPkts int64
	SentPkts     int64
	SentBytes    int64
	// DroppedPkts/DroppedBytes count capacity-overflow drops only
	// (buffer full). Drops caused by a failed element — forced drain,
	// down-port arrivals, in-flight packets on a link that died — are
	// counted separately in FaultDroppedPkts/FaultDroppedBytes so
	// congestion loss and outage loss stay attributable.
	DroppedPkts       int64
	DroppedBytes      int64
	FaultDroppedPkts  int64
	FaultDroppedBytes int64
	ECNMarked         int64
	VoidDropped       int64
	// HighWaterBytes is the worst queue occupancy observed, including
	// the arriving packet (the sim is single-threaded, so a plain max
	// suffices).
	HighWaterBytes int64
}
