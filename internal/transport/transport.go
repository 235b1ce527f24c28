// Package transport implements message-oriented reliable transports on
// top of the netsim packet simulator: a Reno-style TCP (the paper's
// baseline and the transport tenants run over Silo's pacer), DCTCP
// (ECN marking + α-weighted window reduction), and HULL (DCTCP
// congestion control over phantom-queue marking configured at the
// switches).
//
// A Message is the paper's unit of application data (§2): transports
// fragment messages into MSS-sized segments, deliver them reliably,
// and record per-message latency and retransmission-timeout counts —
// the quantities behind Figures 11–14 and Table 4.
package transport

import (
	"fmt"

	"repro/internal/netsim"
)

// Variant selects congestion-control behaviour.
type Variant int

// Transport variants.
const (
	// Reno is loss-based TCP with fast retransmit and go-back-N
	// recovery on timeout.
	Reno Variant = iota
	// DCTCP adds ECN-fraction-proportional window reduction
	// (Alizadeh et al., SIGCOMM 2010).
	DCTCP
)

func (v Variant) String() string {
	switch v {
	case Reno:
		return "reno"
	case DCTCP:
		return "dctcp"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Options configures an endpoint.
type Options struct {
	// Variant is the congestion controller.
	Variant Variant
	// MSS is the payload bytes per segment (wire adds HeaderBytes).
	MSS int
	// InitCwndSegs is the initial window in segments.
	InitCwndSegs int
	// MinRTONs floors the retransmission timeout. Stock OS stacks use
	// 200-300 ms; DCTCP/HULL deployments use ~10 ms.
	MinRTONs int64
	// Paced routes egress through the host's Silo pacer.
	Paced bool
	// Prio is the 802.1q class for this endpoint's packets.
	Prio int
	// DCTCPg is DCTCP's EWMA gain (default 1/16).
	DCTCPg float64
	// MaxCwndBytes caps the congestion window, standing in for the
	// socket send-buffer limit (default 1 MB).
	MaxCwndBytes float64
}

func (o *Options) fill() {
	if o.MSS <= 0 {
		o.MSS = 1460
	}
	if o.InitCwndSegs <= 0 {
		o.InitCwndSegs = 10
	}
	if o.MinRTONs <= 0 {
		o.MinRTONs = 200_000_000 // 200 ms, stock TCP
	}
	if o.DCTCPg <= 0 {
		o.DCTCPg = 1.0 / 16
	}
	if o.MaxCwndBytes <= 0 {
		o.MaxCwndBytes = 1 << 20
	}
}

// HeaderBytes is the per-segment wire overhead (Ethernet+IP+TCP).
const HeaderBytes = 58

// AckBytes is the wire size of a pure ack.
const AckBytes = 64

// Message is one application message.
type Message struct {
	ID        uint64
	SrcVM     int
	DstVM     int
	Size      int
	Submitted int64 // ns at submission
	Completed int64 // ns when the last byte was acknowledged; 0 while in flight
	RTOs      int   // retransmission timeouts suffered while in flight

	start, end int64 // sequence range [start, end)
	done       func(*Message)
}

// Latency returns the message latency in ns (valid after completion).
func (m *Message) Latency() int64 { return m.Completed - m.Submitted }

// Fabric wires transport endpoints to simulator hosts and demuxes
// deliveries by destination VM.
type Fabric struct {
	nw        *netsim.Network
	endpoints map[int]*Endpoint
	// freeSegs is the segment free list, linked through segment.next.
	freeSegs *segment
}

// NewFabric attaches to a network, taking over every host's Deliver
// hook. The Fabric owns what it is delivered: data and ack packets come
// from the engine's arena, and each one, with its segment, is recycled
// once delivery is done with it, so the hosts must not also set
// FreeOnDeliver.
func NewFabric(nw *netsim.Network) *Fabric {
	f := &Fabric{nw: nw, endpoints: make(map[int]*Endpoint)}
	for _, h := range nw.Hosts {
		h.Deliver = f.deliver
	}
	return f
}

// Endpoint returns the endpoint registered for a VM, if any.
func (f *Fabric) Endpoint(vmID int) (*Endpoint, bool) {
	e, ok := f.endpoints[vmID]
	return e, ok
}

// AddEndpoint registers a VM endpoint on a host. Registering a VM again
// replaces its endpoint: from then on packets addressed to the VM reach
// the new one, including packets already in flight.
func (f *Fabric) AddEndpoint(vmID, hostID int, opt Options) *Endpoint {
	opt.fill()
	h := f.nw.Hosts[hostID]
	e := &Endpoint{
		f:      f,
		VMID:   vmID,
		HostID: hostID,
		host:   h,
		sim:    h.Sim(),
		idBase: uint64(vmID+1) << 32,
		opt:    opt,
		conns:  make(map[int]*Conn),
		rcv:    make(map[int]*rcvState),
	}
	if old, ok := f.endpoints[vmID]; ok {
		old.replaced = true
	}
	f.endpoints[vmID] = e
	return e
}

// send injects a packet from an endpoint's host, paced or not. Packet
// IDs are endpoint-scoped — high 32 bits identify the VM, low 32 count
// its emissions — so they are unique fabric-wide without a shared
// counter.
func (f *Fabric) send(e *Endpoint, p *netsim.Packet) {
	e.nextPkt++
	p.ID = e.idBase | e.nextPkt
	if e.opt.Paced && e.host.Paced() {
		e.host.SendPaced(e.VMID, p)
		return
	}
	e.host.Send(p)
}

// deliver demuxes an arriving packet to its destination, then recycles
// the packet and its segment.
func (f *Fabric) deliver(p *netsim.Packet) {
	if seg, ok := p.Payload.(*segment); ok {
		if seg.isAck {
			if c := f.ackConn(p, seg); c != nil {
				c.onAck(seg)
			}
		} else if rs := f.dataRcv(p, seg); rs != nil {
			rs.onData(p, seg)
		}
		f.freeSegment(seg)
	}
	f.nw.Sim.FreePacket(p)
}

// ackConn resolves an ack to the connection it acknowledges: the one the
// ack names, unless that connection's endpoint has been replaced since,
// in which case the VM's current endpoint decides by its own table.
func (f *Fabric) ackConn(p *netsim.Packet, seg *segment) *Conn {
	if c := seg.conn; c != nil && !c.e.replaced {
		return c
	}
	e, ok := f.endpoints[p.DstVM]
	if !ok {
		return nil
	}
	return e.conns[seg.peerVM]
}

// dataRcv resolves a data segment to its receive state: the one the
// sender resolved when it emitted the segment, unless that endpoint has
// been replaced since, in which case the VM's current endpoint's.
func (f *Fabric) dataRcv(p *netsim.Packet, seg *segment) *rcvState {
	if rs := seg.rs; rs != nil && !rs.e.replaced {
		return rs
	}
	e, ok := f.endpoints[p.DstVM]
	if !ok {
		return nil
	}
	return e.rcvFrom(seg.peerVM)
}

// segment is the transport payload riding in netsim packets.
type segment struct {
	peerVM int // for data: sender VM; for ack: receiver VM (ack source)
	seq    int64
	length int
	sentAt int64 // original transmission time, echoed for RTT sampling
	isAck  bool
	ackSeq int64
	ece    bool

	// Message framing: the message this segment belongs to, its final
	// sequence offset and size, so the receiver can deliver complete
	// messages to the application.
	msgID   uint64
	msgEnd  int64
	msgSize int

	// Where the segment is going, resolved by its sender: a data
	// segment's receive state at the destination, and the sending
	// connection, which a data segment's ack carries back. Either may be
	// nil, which sends delivery through the Fabric's tables.
	rs   *rcvState
	conn *Conn

	// next links free segments (see Fabric.newSegment).
	next *segment
}

// newSegment returns a zeroed segment from the Fabric's free list.
func (f *Fabric) newSegment() *segment {
	seg := f.freeSegs
	if seg == nil {
		return new(segment)
	}
	f.freeSegs = seg.next
	seg.next = nil
	return seg
}

// freeSegment returns a delivered segment to the free list. A segment
// whose packet is dropped is left to the garbage collector.
func (f *Fabric) freeSegment(seg *segment) {
	*seg = segment{next: f.freeSegs}
	f.freeSegs = seg
}
