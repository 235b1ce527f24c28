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
	Size int32
	// Prio selects the 802.1q class.
	Prio int8
	// Void marks a pacer spacer frame; the first switch drops it.
	Void bool
	// ECNCapable marks ECT packets (DCTCP/HULL); CE is the congestion
	// mark set by switches.
	ECNCapable, CE bool
	// Gate is the token bucket that determined PacedRelease (the
	// pacer's Gate* constants; 0 for unpaced packets or packets that
	// were immediately feasible). Flight-recorder attribution reads it.
	Gate uint8
	// pooled marks a live arena packet: set by AllocPacket, cleared by
	// FreePacket.
	pooled bool
	// HasHdr marks a packet that carries a transport header in Hdr;
	// generator traffic does not. Ack tells an ack from data; ECE echoes
	// a data segment's CE mark back to its sender. They sit in one word
	// with Size, Prio and Void, which every hop reads, so delivery finds
	// them in cache.
	HasHdr, Ack, ECE bool
	// SentAt is the time the first byte left the source NIC queue
	// entry point (set by Host.Send or the paced wire); used for
	// NIC-to-NIC delay.
	SentAt int64
	// PacedRelease is the pacer's release stamp for paced packets
	// (0 for unpaced); SentAt − PacedRelease is the pacing error.
	PacedRelease int64
	// Hdr is the transport header (with the three flags above), carried
	// by value so that delivery reads nothing but the frame itself.
	Hdr Header

	// next links free packets in a Sim's arena (see Sim.AllocPacket).
	next *Packet
}

// Header is a transport segment's header. The sending VM is the
// packet's SrcVM and the payload is Size − the transport's header
// bytes, so neither is repeated here.
type Header struct {
	// Conn is the demux shortcut the sender resolved: the sending
	// connection. A data segment reaches its receive state through it
	// and an ack carries it back. It may be nil, and FreePacket clears
	// it. It comes first, next to SentAt, which delivery has just read:
	// the first load from a delivered packet's header then rarely
	// misses.
	Conn any
	// Seq is a data segment's first byte, or an ack's cumulative ack.
	Seq int64
	// TS is a data segment's send time; its ack echoes it back for RTT
	// sampling.
	TS int64
	// MsgID, MsgEnd and MsgSize frame the message a data segment belongs
	// to: its ID, the sequence offset just past it and its size.
	MsgID   uint64
	MsgEnd  int64
	MsgSize int32
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
