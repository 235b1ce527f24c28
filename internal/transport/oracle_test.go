package transport

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/netsim"
)

// oracleRcvState and oracleReceiver are the map-based receive path that
// onData replaced, kept as the oracle: receive state and endpoints found
// by map lookup, pending messages in a map walked and sorted on every
// in-order segment, the out-of-order map scanned even when empty.
type oracleRcvState struct {
	rcvNxt      int64
	ooo         map[int64]int64
	bytesIn     int64
	pending     map[uint64]oraclePending
	doneScratch []uint64
}

type oraclePending struct {
	end  int64
	size int
}

type oracleReceiver struct {
	rcv       map[int]*oracleRcvState
	onMessage func(srcVM int, msgID uint64, size int)
	acks      map[int][]ackRec // by data sender
}

// ackRec is what an acknowledgment carries back to the sender.
type ackRec struct {
	ackSeq int64
	ece    bool
	sentAt int64
}

func (o *oracleReceiver) onData(seg *segment, ce bool) {
	rs := o.rcv[seg.peerVM]
	if rs == nil {
		rs = &oracleRcvState{ooo: make(map[int64]int64), pending: make(map[uint64]oraclePending)}
		o.rcv[seg.peerVM] = rs
	}
	if seg.msgEnd > rs.rcvNxt {
		if _, ok := rs.pending[seg.msgID]; !ok {
			rs.pending[seg.msgID] = oraclePending{end: seg.msgEnd, size: seg.msgSize}
		}
	}
	end := seg.seq + int64(seg.length)
	switch {
	case end <= rs.rcvNxt:
	case seg.seq <= rs.rcvNxt:
		advanceFrom := rs.rcvNxt
		rs.rcvNxt = end
		rs.bytesIn += end - advanceFrom
		for {
			oend, ok := rs.ooo[rs.rcvNxt]
			if !ok {
				found := false
				for s, e2 := range rs.ooo {
					if s <= rs.rcvNxt && e2 > rs.rcvNxt {
						oend, found = e2, true
						delete(rs.ooo, s)
						break
					}
					if e2 <= rs.rcvNxt {
						delete(rs.ooo, s)
					}
				}
				if !found {
					break
				}
				rs.bytesIn += oend - rs.rcvNxt
				rs.rcvNxt = oend
				continue
			}
			delete(rs.ooo, rs.rcvNxt)
			rs.bytesIn += oend - rs.rcvNxt
			rs.rcvNxt = oend
		}
		if len(rs.pending) > 0 {
			done := rs.doneScratch[:0]
			for id, pm := range rs.pending {
				if pm.end <= rs.rcvNxt {
					done = append(done, id)
				}
			}
			sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
			for _, id := range done {
				pm := rs.pending[id]
				delete(rs.pending, id)
				if o.onMessage != nil {
					o.onMessage(seg.peerVM, id, pm.size)
				}
			}
			rs.doneScratch = done[:0]
		}
	default:
		if old, ok := rs.ooo[seg.seq]; !ok || end > old {
			rs.ooo[seg.seq] = end
		}
	}
	o.acks[seg.peerVM] = append(o.acks[seg.peerVM], ackRec{ackSeq: rs.rcvNxt, ece: ce, sentAt: seg.sentAt})
}

// msgRec is one OnMessage upcall.
type msgRec struct {
	src  int
	id   uint64
	size int
}

// arrival is one data segment as the receiver sees it.
type arrival struct {
	sender  int // index into the senders
	seq     int64
	length  int
	msgID   uint64
	msgEnd  int64
	msgSize int
	ce      bool
	sentAt  int64
}

// receiveScript draws, for 1–5 senders into one receiver, 1–8 messages
// each and the segments that carry them: MSS cuts from the stream start
// plus retransmissions at arbitrary offsets, then reordered, duplicated
// and dropped at random, interleaved across senders, with a final
// in-order pass on some seeds so that messages complete.
func receiveScript(rng *rand.Rand, senderIDs []uint64) []arrival {
	const mss = 1460
	var out []arrival
	for k, idBase := range senderIDs {
		type msg struct {
			id         uint64
			start, end int64
		}
		var msgs []msg
		var total int64
		for i := 1 + rng.Intn(8); i > 0; i-- {
			size := int64(1 + rng.Intn(20_000))
			msgs = append(msgs, msg{id: idBase | uint64(len(msgs)+1), start: total, end: total + size})
			total += size
		}
		seg := func(seq int64, n int) arrival {
			a := arrival{sender: k, seq: seq, length: n, ce: rng.Intn(4) == 0, sentAt: int64(len(out) + 1)}
			// Framing as Conn.emit attaches it: the message holding seq.
			i := sort.Search(len(msgs), func(i int) bool { return msgs[i].end > seq })
			a.msgID, a.msgEnd, a.msgSize = msgs[i].id, msgs[i].end, int(msgs[i].end-msgs[i].start)
			return a
		}
		var segs []arrival
		for seq := int64(0); seq < total; seq += mss {
			segs = append(segs, seg(seq, int(min(mss, total-seq))))
		}
		for r := rng.Intn(len(segs) + 1); r > 0; r-- {
			seq := rng.Int63n(total)
			segs = append(segs, seg(seq, int(min(int64(1+rng.Intn(mss)), total-seq))))
		}
		var stream []arrival
		for _, i := range rng.Perm(len(segs)) {
			switch rng.Intn(10) {
			case 0: // dropped
			case 1: // duplicated
				stream = append(stream, segs[i], segs[i])
			default:
				stream = append(stream, segs[i])
			}
		}
		// Mostly in order: undo part of the shuffle.
		sort.SliceStable(stream, func(i, j int) bool { return stream[i].seq/(8*mss) < stream[j].seq/(8*mss) })
		if rng.Intn(2) == 0 {
			for seq := int64(0); seq < total; seq += mss {
				stream = append(stream, seg(seq, int(min(mss, total-seq))))
			}
		}
		// Interleave with what the other senders already sent.
		merged := make([]arrival, 0, len(out)+len(stream))
		for len(out) > 0 || len(stream) > 0 {
			if len(stream) == 0 || len(out) > 0 && rng.Intn(2) == 0 {
				merged, out = append(merged, out[0]), out[1:]
			} else {
				merged, stream = append(merged, stream[0]), stream[1:]
			}
		}
		out = merged
	}
	return out
}

// TestReceivePathMatchesMapOracle: on seeded random segment streams the
// receive path delivers the same OnMessage sequence, counts the same
// in-order bytes and returns the same acknowledgments as the map-based
// path it replaced.
func TestReceivePathMatchesMapOracle(t *testing.T) {
	completions := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := testNet(t, 312e3)
		f := NewFabric(nw)
		dst := f.AddEndpoint(200, 1, Options{})
		var got []msgRec
		dst.OnMessage = func(src int, id uint64, size int) { got = append(got, msgRec{src, id, size}) }
		oracle := &oracleReceiver{rcv: map[int]*oracleRcvState{}, acks: map[int][]ackRec{}}
		var want []msgRec
		oracle.onMessage = func(src int, id uint64, size int) { want = append(want, msgRec{src, id, size}) }

		hosts := []int{0, 2, 3, 4, 5}
		var senders []*Endpoint
		var ids []uint64
		gotAcks := map[int][]ackRec{}
		for k, n := 0, 1+rng.Intn(len(hosts)); k < n; k++ {
			e := f.AddEndpoint(100+k, hosts[k], Options{})
			senders = append(senders, e)
			ids = append(ids, e.idBase)
			nw.Hosts[hosts[k]].Deliver = func(p *netsim.Packet) {
				ack := p.Payload.(*segment)
				gotAcks[p.DstVM] = append(gotAcks[p.DstVM], ackRec{ackSeq: ack.ackSeq, ece: ack.ece, sentAt: ack.sentAt})
			}
		}
		for _, a := range receiveScript(rng, ids) {
			c := senders[a.sender].Conn(200)
			seg := f.newSegment()
			seg.peerVM, seg.seq, seg.length, seg.sentAt = c.e.VMID, a.seq, a.length, a.sentAt
			seg.msgID, seg.msgEnd, seg.msgSize = a.msgID, a.msgEnd, a.msgSize
			seg.rs, seg.conn = c.resolvePeer(), c
			oracle.onData(seg, a.ce)
			p := nw.Sim.AllocPacket()
			p.Src, p.Dst, p.SrcVM, p.DstVM, p.Size, p.CE, p.Payload = c.e.HostID, 1, c.e.VMID, 200, a.length+HeaderBytes, a.ce, seg
			f.deliver(p)
			nw.Sim.Run(nw.Sim.Now() + 2_000)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: OnMessage\n got %v\nwant %v", seed, got, want)
		}
		for _, e := range senders {
			var w int64
			if rs := oracle.rcv[e.VMID]; rs != nil {
				w = rs.bytesIn
			}
			if g := dst.BytesReceived(e.VMID); g != w {
				t.Fatalf("seed %d: BytesReceived(%d) = %d, oracle %d", seed, e.VMID, g, w)
			}
			if g, w := gotAcks[e.VMID], oracle.acks[e.VMID]; !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: acks to %d differ:\n got %v\nwant %v", seed, e.VMID, g, w)
			}
		}
		completions += len(want)
	}
	if completions < 500 {
		t.Errorf("only %d messages completed over all seeds: the streams do not exercise completion", completions)
	}
}
