package transport

import (
	"cmp"
	"slices"

	"repro/internal/netsim"
)

// onData processes a data segment arriving from rs's sender: update the
// reassembly state and return a cumulative ack. DCTCP's exact echo
// reflects this packet's CE mark in the ack's ECE bit.
func (rs *rcvState) onData(p *netsim.Packet) {
	e := rs.e
	h := &p.Hdr
	// Register the segment's message frame (idempotent).
	if h.MsgEnd > rs.rcvNxt {
		rs.expect(h.MsgID, h.MsgEnd, int(h.MsgSize))
	}
	seq := h.Seq
	end := seq + int64(p.Size-HeaderBytes)
	switch {
	case end <= rs.rcvNxt:
		// Stale duplicate; re-ack.
	case seq <= rs.rcvNxt:
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
					e.OnMessage(p.SrcVM, pm.id, pm.size)
				}
			}
			rs.done = done[:0]
		}
	default:
		// Out of order: buffer (keep the longest range per start).
		if old, ok := rs.ooo[seq]; !ok || end > old {
			rs.ooo[seq] = end
		}
	}
	e.sendAck(p, rs)
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

// sendAck returns a cumulative acknowledgment of data to its sender: to
// the sending connection itself while its endpoint is the sender VM's
// current one, else to whatever endpoint the VM has now.
func (e *Endpoint) sendAck(data *netsim.Packet, rs *rcvState) {
	f := e.f
	conn, _ := data.Hdr.Conn.(*Conn)
	var peer *Endpoint
	if conn != nil && !conn.e.replaced {
		peer = conn.e
	} else {
		conn = nil
		var ok bool
		if peer, ok = f.endpoints[data.SrcVM]; !ok {
			return
		}
	}
	p := e.sim.AllocPacket()
	p.Src = e.HostID
	p.Dst = peer.HostID
	p.SrcVM = e.VMID
	p.DstVM = data.SrcVM
	p.Size = AckBytes
	p.Prio = int8(e.opt.Prio)
	p.HasHdr, p.Ack, p.ECE = true, true, data.CE
	h := &p.Hdr
	h.Seq = rs.rcvNxt
	h.TS = data.Hdr.TS // echo for RTT sampling
	if conn != nil {
		h.Conn = conn
	}
	f.send(e, p)
}

// BytesReceived reports in-order payload bytes received from a peer VM.
func (e *Endpoint) BytesReceived(peerVM int) int64 {
	if rs, ok := e.rcv[peerVM]; ok {
		return rs.bytesIn
	}
	return 0
}
