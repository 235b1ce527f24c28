package transport

import (
	"sort"

	"repro/internal/netsim"
)

// Endpoint is one VM's transport stack: connection windows, receive
// reassembly, ID counters.
type Endpoint struct {
	f      *Fabric
	VMID   int
	HostID int
	host   *netsim.Host
	sim    *netsim.Sim
	opt    Options

	// idBase is VMID+1 shifted into the high word; message and packet
	// IDs are idBase | counter, unique without fabric-wide state.
	idBase    uint64
	nextPkt   uint64
	nextMsgID uint64

	conns map[int]*Conn     // by remote VM (sender side)
	rcv   map[int]*rcvState // by remote VM (receiver side)
	// replaced is set when AddEndpoint registers the VM again; segments
	// resolved to this endpoint then go through the Fabric's tables.
	replaced bool

	// OnMessage, if set, is invoked at the receiver exactly once per
	// message, when the message's final byte has arrived in order.
	OnMessage func(srcVM int, msgID uint64, size int)
}

// Options returns the endpoint's configuration.
func (e *Endpoint) Options() Options { return e.opt }

// Conn returns (creating if needed) the sender-side connection to a
// remote VM.
func (e *Endpoint) Conn(dstVM int) *Conn {
	if c, ok := e.conns[dstVM]; ok {
		return c
	}
	c := newConn(e, dstVM)
	e.conns[dstVM] = c
	return c
}

// SendMessage queues a message to dstVM; done (optional) fires at the
// sender when the final byte is cumulatively acknowledged.
func (e *Endpoint) SendMessage(dstVM, size int, done func(*Message)) *Message {
	return e.Conn(dstVM).sendMessage(size, done)
}

// rcvFrom returns (creating if needed) the receive state for segments
// from a peer VM.
func (e *Endpoint) rcvFrom(peerVM int) *rcvState {
	rs := e.rcv[peerVM]
	if rs == nil {
		rs = &rcvState{e: e, ooo: make(map[int64]int64)}
		e.rcv[peerVM] = rs
	}
	return rs
}

// rcvState is per-sender receiver state: cumulative expected sequence
// plus an out-of-order reassembly buffer.
type rcvState struct {
	e      *Endpoint // the receiving endpoint
	rcvNxt int64
	ooo    map[int64]int64 // seq -> end
	// bytesIn counts in-order delivered payload bytes.
	bytesIn int64
	// pending lists message frames whose completion has not yet been
	// delivered to the application, in message-ID order.
	pending []pendingMsg
	// done is reused across drains for the completion pass in onData.
	done []pendingMsg
}

// pendingMsg is a message frame awaiting receiver-side completion.
type pendingMsg struct {
	id   uint64
	end  int64
	size int
}

// Conn is the sender side of a one-directional byte stream carrying
// messages.
type Conn struct {
	e     *Endpoint
	dstVM int

	// Sequence state (bytes).
	sndUna, sndNxt, writeEnd int64

	// Congestion control.
	cwnd     float64
	ssthresh float64
	dupacks  int
	inFR     bool  // fast recovery
	recover  int64 // sndNxt when loss was detected

	// DCTCP state.
	alpha       float64
	ackedBytes  float64
	markedBytes float64
	windowEnd   int64

	// RTT/RTO.
	srtt, rttvar float64 // ns
	rto          int64
	backoff      int64
	// rtoTimer is the retransmission timer.
	rtoTimer *netsim.Timer

	// peer is the destination's receive state for this connection,
	// resolved through the Fabric on first use and again whenever the
	// destination VM's endpoint is replaced.
	peer *rcvState

	// Messages in flight or queued.
	msgs []*Message

	// Stats.
	RTOCount    int
	FastRetx    int
	BytesAcked  int64
	SegmentsOut int64
}

func newConn(e *Endpoint, dstVM int) *Conn {
	c := &Conn{
		e:        e,
		dstVM:    dstVM,
		cwnd:     float64(e.opt.InitCwndSegs * e.opt.MSS),
		ssthresh: 1 << 30,
		rto:      e.opt.MinRTONs,
		backoff:  1,
	}
	c.rtoTimer = e.sim.NewTimer(c.onRTO)
	return c
}

func (c *Conn) sendMessage(size int, done func(*Message)) *Message {
	c.e.nextMsgID++
	m := &Message{
		ID:        c.e.idBase | c.e.nextMsgID,
		SrcVM:     c.e.VMID,
		DstVM:     c.dstVM,
		Size:      size,
		Submitted: c.e.sim.Now(),
		start:     c.writeEnd,
		end:       c.writeEnd + int64(size),
		done:      done,
	}
	c.writeEnd = m.end
	c.msgs = append(c.msgs, m)
	c.trySend()
	return m
}

// flightSize returns unacknowledged bytes.
func (c *Conn) flightSize() float64 { return float64(c.sndNxt - c.sndUna) }

// trySend emits segments while the window allows.
func (c *Conn) trySend() {
	mss := int64(c.e.opt.MSS)
	for c.sndNxt < c.writeEnd && c.flightSize()+float64(mss) <= c.cwnd+1e-9 {
		n := c.writeEnd - c.sndNxt
		if n > mss {
			n = mss
		}
		c.emit(c.sndNxt, int(n))
		c.sndNxt += n
	}
	c.armRTO()
}

// resolvePeer returns the destination's receive state, or nil while the
// destination VM has no endpoint.
func (c *Conn) resolvePeer() *rcvState {
	if rs := c.peer; rs != nil && !rs.e.replaced {
		return rs
	}
	c.peer = nil
	if dst, ok := c.e.f.endpoints[c.dstVM]; ok {
		c.peer = dst.rcvFrom(c.e.VMID)
	}
	return c.peer
}

// emit transmits bytes [seq, seq+n).
func (c *Conn) emit(seq int64, n int) {
	rs := c.resolvePeer()
	if rs == nil {
		return
	}
	f := c.e.f
	seg := f.newSegment()
	seg.peerVM = c.e.VMID
	seg.seq = seq
	seg.length = n
	seg.sentAt = c.e.sim.Now()
	seg.rs = rs
	seg.conn = c
	// Attach framing for the message this segment belongs to: msgs is
	// ordered by start (and so by end), so the first message ending
	// past seq is the only candidate.
	i := sort.Search(len(c.msgs), func(i int) bool { return c.msgs[i].end > seq })
	if i < len(c.msgs) && seq >= c.msgs[i].start {
		m := c.msgs[i]
		seg.msgID = m.ID
		seg.msgEnd = m.end
		seg.msgSize = m.Size
	}
	p := c.e.sim.AllocPacket()
	p.Src = c.e.HostID
	p.Dst = rs.e.HostID
	p.SrcVM = c.e.VMID
	p.DstVM = c.dstVM
	p.Size = n + HeaderBytes
	p.Prio = c.e.opt.Prio
	p.ECNCapable = c.e.opt.Variant == DCTCP
	p.Payload = seg
	f.send(c.e, p)
	c.SegmentsOut++
}

// onAck handles a cumulative acknowledgment.
func (c *Conn) onAck(seg *segment) {
	opt := c.e.opt
	mss := float64(opt.MSS)
	now := c.e.sim.Now()

	// RTT sample from the echoed send time.
	if seg.sentAt > 0 {
		sample := float64(now - seg.sentAt)
		if c.srtt == 0 {
			c.srtt = sample
			c.rttvar = sample / 2
		} else {
			d := sample - c.srtt
			if d < 0 {
				d = -d
			}
			c.rttvar = 0.75*c.rttvar + 0.25*d
			c.srtt = 0.875*c.srtt + 0.125*sample
		}
		rto := int64(c.srtt + 4*c.rttvar)
		if rto < opt.MinRTONs {
			rto = opt.MinRTONs
		}
		c.rto = rto
	}

	// DCTCP mark accounting (on every ack, per the exact-echo spec).
	if opt.Variant == DCTCP {
		adv := seg.ackSeq - c.sndUna
		if adv < 0 {
			adv = 0
		}
		bytes := float64(adv)
		if bytes == 0 {
			bytes = mss // dupack approximates one segment's worth
		}
		c.ackedBytes += bytes
		if seg.ece {
			c.markedBytes += bytes
		}
		if c.sndUna >= c.windowEnd || seg.ackSeq >= c.windowEnd {
			if c.ackedBytes > 0 {
				frac := c.markedBytes / c.ackedBytes
				g := opt.DCTCPg
				c.alpha = (1-g)*c.alpha + g*frac
				if frac > 0 {
					c.cwnd = c.cwnd * (1 - c.alpha/2)
					if c.cwnd < 2*mss {
						c.cwnd = 2 * mss
					}
				}
			}
			c.ackedBytes, c.markedBytes = 0, 0
			c.windowEnd = c.sndNxt
		}
	}

	switch {
	case seg.ackSeq > c.sndUna:
		newly := seg.ackSeq - c.sndUna
		c.sndUna = seg.ackSeq
		c.BytesAcked += newly
		c.dupacks = 0
		c.backoff = 1
		if c.inFR {
			if c.sndUna >= c.recover {
				// Full recovery.
				c.inFR = false
				c.cwnd = c.ssthresh
			} else {
				// NewReno partial ack: the next hole is lost too;
				// retransmit it immediately and stay in recovery.
				n := c.writeEnd - c.sndUna
				if n > int64(opt.MSS) {
					n = int64(opt.MSS)
				}
				if n > 0 {
					c.emit(c.sndUna, int(n))
				}
			}
		}
		if !c.inFR {
			if c.cwnd < c.ssthresh {
				c.cwnd += float64(newly) // slow start
			} else {
				c.cwnd += mss * float64(newly) / c.cwnd // AIMD
			}
			if c.cwnd > opt.MaxCwndBytes {
				c.cwnd = opt.MaxCwndBytes
			}
		}
		c.completeMessages(now)
		c.armRTO()
	case seg.ackSeq == c.sndUna && c.sndNxt > c.sndUna:
		c.dupacks++
		if c.dupacks == 3 && !c.inFR {
			// Fast retransmit.
			c.FastRetx++
			fs := c.flightSize()
			c.ssthresh = fs / 2
			if c.ssthresh < 2*mss {
				c.ssthresh = 2 * mss
			}
			c.cwnd = c.ssthresh
			c.inFR = true
			c.recover = c.sndNxt
			n := c.writeEnd - c.sndUna
			if n > int64(opt.MSS) {
				n = int64(opt.MSS)
			}
			if n > 0 {
				c.emit(c.sndUna, int(n))
			}
		}
	}
	c.trySend()
}

// completeMessages fires callbacks for messages fully acknowledged.
func (c *Conn) completeMessages(now int64) {
	for len(c.msgs) > 0 && c.msgs[0].end <= c.sndUna {
		m := c.msgs[0]
		c.msgs = c.msgs[1:]
		m.Completed = now
		if m.done != nil {
			m.done(m)
		}
	}
}

// armRTO (re)arms the retransmission timer, or stops it when nothing
// is in flight.
func (c *Conn) armRTO() {
	if c.sndUna >= c.sndNxt {
		c.rtoTimer.Stop()
		return
	}
	timeout := c.rto * c.backoff
	if max := int64(4_000_000_000); timeout > max {
		timeout = max
	}
	c.rtoTimer.Arm(c.e.sim.Now() + timeout)
}

// onRTO handles a retransmission timeout: go-back-N.
func (c *Conn) onRTO() {
	if c.sndUna >= c.sndNxt {
		return
	}
	mss := float64(c.e.opt.MSS)
	c.RTOCount++
	// Charge the timeout to every message overlapping the in-flight
	// window.
	for _, m := range c.msgs {
		if m.start < c.sndNxt && m.end > c.sndUna {
			m.RTOs++
		}
	}
	fs := c.flightSize()
	c.ssthresh = fs / 2
	if c.ssthresh < 2*mss {
		c.ssthresh = 2 * mss
	}
	c.cwnd = mss
	c.sndNxt = c.sndUna
	c.dupacks = 0
	c.inFR = false
	if c.backoff < 64 {
		c.backoff *= 2
	}
	c.trySend()
}
