package transport

import (
	"cmp"
	"slices"

	"repro/internal/netsim"
)

// onData processes a data segment arriving from rs's sender: update the
// reassembly state and return a cumulative ack. DCTCP's exact echo
// reflects this packet's CE mark in the ack's ECE bit.
func (rs *rcvState) onData(p *netsim.Packet, seg *segment) {
	e := rs.e
	// Register the segment's message frame (idempotent).
	if seg.msgEnd > rs.rcvNxt {
		rs.expect(seg.msgID, seg.msgEnd, seg.msgSize)
	}
	end := seg.seq + int64(seg.length)
	switch {
	case end <= rs.rcvNxt:
		// Stale duplicate; re-ack.
	case seg.seq <= rs.rcvNxt:
		// In-order (possibly overlapping) data.
		advanceFrom := rs.rcvNxt
		rs.rcvNxt = end
		rs.bytesIn += end - advanceFrom
		if len(rs.ooo) > 0 {
			rs.drainOOO()
		}
		// Deliver messages whose final byte has now arrived. A single
		// drain can complete several at once; pending is in message-ID
		// order, so callback order (and anything the application emits
		// from it) is deterministic.
		if len(rs.pending) > 0 {
			done, kept := rs.done[:0], rs.pending[:0]
			for _, pm := range rs.pending {
				if pm.end <= rs.rcvNxt {
					done = append(done, pm)
				} else {
					kept = append(kept, pm)
				}
			}
			rs.pending = kept
			for _, pm := range done {
				if e.OnMessage != nil {
					e.OnMessage(seg.peerVM, pm.id, pm.size)
				}
			}
			rs.done = done[:0]
		}
	default:
		// Out of order: buffer (keep the longest range per start).
		if old, ok := rs.ooo[seg.seq]; !ok || end > old {
			rs.ooo[seg.seq] = end
		}
	}
	e.sendAck(seg, rs, p.CE)
}

// expect registers message id, ending at sequence offset end, as
// pending unless it already is.
func (rs *rcvState) expect(id uint64, end int64, size int) {
	n := len(rs.pending)
	if n > 0 && rs.pending[n-1].id == id {
		return // the common case: more of the newest message
	}
	i, found := slices.BinarySearchFunc(rs.pending, id, func(pm pendingMsg, id uint64) int { return cmp.Compare(pm.id, id) })
	if !found {
		rs.pending = slices.Insert(rs.pending, i, pendingMsg{id: id, end: end, size: size})
	}
}

// drainOOO moves rcvNxt through every buffered out-of-order range that
// now touches it, dropping ranges that fell wholly behind.
func (rs *rcvState) drainOOO() {
	for {
		oend, ok := rs.ooo[rs.rcvNxt]
		if !ok {
			// The buffer keys on segment start; scan for any range
			// covering rcvNxt (overlaps are possible after go-back-N
			// retransmission).
			found := false
			for s, e2 := range rs.ooo {
				if s <= rs.rcvNxt && e2 > rs.rcvNxt {
					oend, found = e2, true
					delete(rs.ooo, s)
					break
				}
				if e2 <= rs.rcvNxt {
					delete(rs.ooo, s) // fully stale
				}
			}
			if !found {
				return
			}
			rs.bytesIn += oend - rs.rcvNxt
			rs.rcvNxt = oend
			continue
		}
		delete(rs.ooo, rs.rcvNxt)
		rs.bytesIn += oend - rs.rcvNxt
		rs.rcvNxt = oend
	}
}

// sendAck returns a cumulative acknowledgment to the data sender: to the
// sending connection itself while its endpoint is the sender VM's
// current one, else to whatever endpoint the VM has now.
func (e *Endpoint) sendAck(data *segment, rs *rcvState, ce bool) {
	f := e.f
	conn := data.conn
	var peer *Endpoint
	if conn != nil && !conn.e.replaced {
		peer = conn.e
	} else {
		conn = nil
		var ok bool
		if peer, ok = f.endpoints[data.peerVM]; !ok {
			return
		}
	}
	ack := f.newSegment()
	ack.peerVM = e.VMID
	ack.isAck = true
	ack.ackSeq = rs.rcvNxt
	ack.ece = ce
	ack.sentAt = data.sentAt // echo for RTT sampling
	ack.conn = conn
	p := e.sim.AllocPacket()
	p.Src = e.HostID
	p.Dst = peer.HostID
	p.SrcVM = e.VMID
	p.DstVM = data.peerVM
	p.Size = AckBytes
	p.Prio = e.opt.Prio
	p.Payload = ack
	f.send(e, p)
}

// BytesReceived reports in-order payload bytes received from a peer VM.
func (e *Endpoint) BytesReceived(peerVM int) int64 {
	if rs, ok := e.rcv[peerVM]; ok {
		return rs.bytesIn
	}
	return 0
}
