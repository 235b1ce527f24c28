package pacer

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Packet is one frame of a batch: a data frame the scheduler committed
// or a void the batcher synthesized. Frames are values: the ready queue
// and Batch.Packets hold them inline, and a copy stays valid for good.
type Packet struct {
	// Ref carries an opaque payload reference for integrations (e.g.
	// the simulator's packet); nil for a void.
	Ref interface{}
	// Bytes is the on-wire frame size including Ethernet overhead.
	Bytes int
	// Release is the earliest ns at which the frame may leave the NIC,
	// assigned when the scheduler commits the packet.
	Release int64
	// Wire is the ns at which the batcher actually laid the frame on
	// the wire (set during batch building).
	Wire int64

	enq int64  // enqueue time
	seq uint64 // FIFO tiebreak within equal Release

	// Gate records which token bucket determined Release (Gate*
	// constants; GateNone when the packet was immediately feasible).
	// Set at commit time; flight-recorder attribution reads it.
	Gate uint8
	// Void marks a spacer frame (MAC src == MAC dst) that the first
	// switch drops.
	Void bool
}

// entry is a data frame waiting in its destination queue: what a
// commit turns into a Packet.
type entry struct {
	ref   interface{}
	enq   int64
	seq   uint64
	bytes int
}

// Gate values: which bucket of the chain (Figure 8) pushed a packet's
// release stamp furthest, i.e. the binding constraint at commit time.
const (
	// GateNone: the packet was feasible at its enqueue time.
	GateNone uint8 = iota
	// GateDest: the per-destination hose bucket gated it.
	GateDest
	// GateAvg: the {B, S} tenant bucket gated it (the VM offered more
	// than its arrival curve B·t + S admits).
	GateAvg
	// GateCap: the Bmax cap bucket gated it.
	GateCap
)

// EnqueuedAt reports when the packet entered its destination queue.
func (p *Packet) EnqueuedAt() int64 { return p.enq }

// Guarantee configures a VM pacer.
type Guarantee struct {
	// BandwidthBps is B, the average rate (token bucket rate).
	BandwidthBps float64
	// BurstBytes is S, the {B,S} bucket's size.
	BurstBytes float64
	// BurstRateBps is Bmax, the cap bucket's rate. <= 0 means
	// unlimited.
	BurstRateBps float64
	// MTUBytes sizes the cap bucket (one packet may go at wire speed).
	MTUBytes float64
}

// dest is everything the scheduler keeps for one destination: the hose
// bucket, the FIFO of packets awaiting commit and the coordinator's
// byte counters.
type dest struct {
	id   int
	hose *TokenBucket // nil = unconstrained pending coordination
	q    fifo         // unscheduled packets, in blocks from VM.free
	pos  int          // index in VM.backlog while q is non-empty
	// seen records that traffic was queued toward id and the record is
	// in VM.dests (SetDestRate alone does not make a destination
	// visible to the coordinator).
	seen bool

	// headEnq, headBytes and headSeq mirror the head entry, set whenever
	// the head changes, so the scheduler's scan reads no queue.
	headEnq   int64
	headBytes int
	headSeq   uint64

	// stageR/stageGate cache the destination-bucket stage of the head's
	// release: a function of the head packet and the hose bucket only,
	// so it holds until that head commits or SetDestRate touches the
	// bucket. The shared {B,S} and Bmax stages move with every commit
	// and are recomputed each time.
	stageOK   bool
	stageGate uint8
	stageR    int64

	queuedBytes int64 // bytes awaiting commit
	sentBytes   int64 // cumulative committed bytes
}

// VM shapes one virtual machine's egress traffic through the paper's
// token-bucket hierarchy (Figure 8): per-destination hose buckets on
// top, the {B, S} tenant bucket in the middle, the Bmax cap bucket at
// the bottom.
//
// Packets wait in per-destination FIFOs and are committed through the
// bucket chain in chronological release order — exactly as the
// filter driver drains its queues. Committing in time order is what
// keeps the chain jointly conformant: every bucket's virtual clock
// moves monotonically, so no packet can consume budget "in the past"
// on behalf of a packet that another bucket has deferred.
type VM struct {
	ID  int
	g   Guarantee
	cap *TokenBucket // Bmax
	avg *TokenBucket // {B, S}

	byID    map[int]*dest // consulted on Enqueue/SetDestRate and by the coordinator's accessors only
	dests   []*dest       // records traffic was queued toward, in first-seen order
	backlog []*dest       // records with a non-empty queue; the scheduler's whole working set
	queued  int
	free    *block // the destination queues' spare blocks
	ready   ring   // committed packets in (Release, seq) order
	seq     uint64
}

// NewVM returns a pacer for one VM, with buckets full at time start.
func NewVM(id int, g Guarantee, start int64) *VM {
	if g.MTUBytes <= 0 {
		g.MTUBytes = units.MTUBytes
	}
	burst := g.BurstBytes
	if burst < g.MTUBytes {
		burst = g.MTUBytes // a bucket must admit at least one packet
	}
	return &VM{
		ID:   id,
		g:    g,
		cap:  NewTokenBucket(g.BurstRateBps, g.MTUBytes, start),
		avg:  NewTokenBucket(g.BandwidthBps, burst, start),
		byID: make(map[int]*dest),
	}
}

// destFor returns dst's record, creating it on first sight.
func (v *VM) destFor(dst int) *dest {
	d := v.byID[dst]
	if d == nil {
		d = &dest{id: dst}
		v.byID[dst] = d
	}
	return d
}

// SetDestRate installs or retunes the per-destination hose bucket for
// traffic toward dst (paper Figure 8, top row; rates come from the
// hose coordinator with Σ rates <= B). A rate of 0 removes the bucket
// (destination unconstrained pending coordination); the queue and the
// byte counters stay.
func (v *VM) SetDestRate(now int64, dst int, rate float64) {
	if rate <= 0 {
		if d := v.byID[dst]; d != nil {
			d.hose = nil
			d.stageOK = false
		}
		return
	}
	d := v.destFor(dst)
	d.stageOK = false
	if d.hose != nil {
		d.hose.SetRate(now, rate)
		return
	}
	// Per-destination buckets carry the full burst allowance: bursts
	// are not destination-limited (§4.1).
	burst := v.g.BurstBytes
	if burst < v.g.MTUBytes {
		burst = v.g.MTUBytes
	}
	d.hose = NewTokenBucket(rate, burst, now)
}

// DestRate reports the installed per-destination rate toward dst
// (0 if no bucket is installed).
func (v *VM) DestRate(dst int) float64 {
	if d := v.byID[dst]; d != nil && d.hose != nil {
		return d.hose.rate
	}
	return 0
}

// Enqueue admits one data packet into its destination queue. The
// release stamp is assigned later, when the scheduler commits the
// packet in chronological order.
func (v *VM) Enqueue(now int64, dstVM, bytes int, ref interface{}) {
	d := v.destFor(dstVM)
	if !d.seen {
		d.seen = true
		v.dests = append(v.dests, d)
	}
	e := d.q.push(&v.free)
	*e = entry{ref: ref, enq: now, seq: v.seq, bytes: bytes}
	v.seq++
	if d.q.n == 1 {
		d.pos = len(v.backlog)
		v.backlog = append(v.backlog, d)
		d.setHead(e)
	}
	v.queued++
	d.queuedBytes += int64(bytes)
}

// setHead mirrors the entry now at the front of d's queue.
func (d *dest) setHead(e *entry) {
	d.headEnq, d.headBytes, d.headSeq = e.enq, e.bytes, e.seq
}

// stage returns the destination-bucket stage of d's head release,
// computing it if the cache is stale. TokenBucket.Free(t, n) >= t, so
// the later stages only push a release later: stage is a lower bound
// on the head's release.
func (d *dest) stage() int64 {
	if !d.stageOK {
		d.stageR, d.stageGate, d.stageOK = d.headEnq, GateNone, true
		if d.hose != nil {
			if f := d.hose.Free(d.headEnq, d.headBytes); f > d.headEnq {
				d.stageR, d.stageGate = f, GateDest
			}
		}
	}
	return d.stageR
}

// headRelease returns the earliest release for d's head packet given
// current bucket states, without committing, plus the gating bucket
// (the last stage that pushed the release later). A single forward
// pass is exact: token balances only grow with time, so feasibility at
// a later stage never invalidates an earlier one.
func (v *VM) headRelease(d *dest) (int64, uint8) {
	r, gate := d.stage(), d.stageGate
	n := d.headBytes
	if f := v.avg.Free(r, n); f > r {
		r = f
		gate = GateAvg
	}
	if f := v.cap.Free(r, n); f > r {
		r = f
		gate = GateCap
	}
	return r, gate
}

// Schedule commits queued packets with release stamps <= upTo, in
// chronological order, moving them to the ready queue. The commit rule
// is min (release, seq) over queue heads — a total order, so the order
// the backlog slice happens to hold its records in cannot matter.
//
// A head's stage is a lower bound on its release, so each round first
// evaluates the head with the least (stage, seq) and then only heads
// whose (stage, seq) sorts below the best (release, seq) found so far:
// no other head can win. If even the least stage is past upTo, nothing
// is due.
func (v *VM) Schedule(upTo int64) {
	for len(v.backlog) > 0 {
		first := v.backlog[0]
		firstR := first.stage()
		for _, d := range v.backlog[1:] {
			if r := d.stage(); r < firstR || (r == firstR && d.headSeq < first.headSeq) {
				first, firstR = d, r
			}
		}
		if firstR > upTo {
			break
		}
		best := first
		bestR, bestGate := v.headRelease(first)
		bestSeq := first.headSeq
		for _, d := range v.backlog {
			if d == first || d.stageR > bestR || (d.stageR == bestR && d.headSeq > bestSeq) {
				continue
			}
			if r, gate := v.headRelease(d); r < bestR || (r == bestR && d.headSeq < bestSeq) {
				best, bestR, bestSeq, bestGate = d, r, d.headSeq, gate
			}
		}
		if bestR > upTo {
			break
		}
		e := best.q.front()
		v.queued--
		best.queuedBytes -= int64(e.bytes)
		best.sentBytes += int64(e.bytes)
		// Commit through the chain at the final release time.
		if best.hose != nil {
			best.hose.Commit(bestR, e.bytes)
		}
		v.avg.Commit(bestR, e.bytes)
		v.cap.Commit(bestR, e.bytes)
		*v.readySlot(bestR, e.seq) = Packet{Ref: e.ref, Bytes: e.bytes, Release: bestR, enq: e.enq, seq: e.seq, Gate: bestGate}
		best.q.drop(&v.free)
		best.stageOK = false
		if best.q.n == 0 {
			last := v.backlog[len(v.backlog)-1]
			v.backlog[best.pos] = last
			last.pos = best.pos
			v.backlog = v.backlog[:len(v.backlog)-1]
		} else {
			best.setHead(best.q.front())
		}
	}
}

// Pending reports packets not yet handed to the batcher (queued plus
// scheduled-but-unsent).
func (v *VM) Pending() int { return v.queued + v.ready.n }

// NextEventTime returns the earliest time at which this VM has a
// packet eligible to leave: the head of the ready queue or the
// earliest feasible release among queue heads.
func (v *VM) NextEventTime() (int64, bool) {
	best := int64(math.MaxInt64)
	ok := false
	if v.ready.n > 0 {
		best = v.ready.front().Release
		ok = true
	}
	for _, d := range v.backlog {
		if d.stage() >= best {
			continue // its release is no earlier than its stage
		}
		if r, _ := v.headRelease(d); r < best {
			best = r
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}

// PeekRelease returns the earliest committed release time. Callers
// must Schedule() past their horizon of interest first.
func (v *VM) PeekRelease() (int64, bool) {
	if v.ready.n == 0 {
		return 0, false
	}
	return v.ready.front().Release, true
}

// PopReady removes and returns the earliest committed packet if its
// release time is <= horizon.
func (v *VM) PopReady(horizon int64) (Packet, bool) {
	if v.ready.n == 0 || v.ready.front().Release > horizon {
		return Packet{}, false
	}
	p := *v.ready.front()
	v.ready.drop()
	return p, true
}

func (v *VM) String() string {
	return fmt.Sprintf("VM(%d: B=%.0f S=%.0f Bmax=%.0f, %d queued)",
		v.ID, v.g.BandwidthBps, v.g.BurstBytes, v.g.BurstRateBps, v.Pending())
}

// readySlot opens the ready queue's slot for a packet committed at
// (release, seq), in (Release, seq) order, for the caller to fill.
// Commits arrive in that order whenever the {B,S} bucket has a rate
// (its virtual clock never moves back), so the walk from the tail is
// normally zero steps; with an unlimited bucket a later enqueue can
// commit ahead of packets already waiting, and the walk keeps the pop
// order exactly what a priority queue would give.
func (v *VM) readySlot(release int64, seq uint64) *Packet {
	q := &v.ready
	q.grow()
	i := q.n
	for i > 0 {
		prev := &q.buf[q.slot(i-1)]
		if prev.Release < release || (prev.Release == release && prev.seq < seq) {
			break
		}
		q.buf[q.slot(i)] = *prev
		i--
	}
	q.n++
	return &q.buf[q.slot(i)]
}

// ring is the ready queue: committed packets in a power-of-two ring.
type ring struct {
	buf  []Packet
	head int // index of the front packet
	n    int
}

func (q *ring) front() *Packet { return &q.buf[q.head] }

// slot maps a queue position (0 = front) to its buffer index.
func (q *ring) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// grow doubles the buffer when it is full, unrolling the ring.
func (q *ring) grow() {
	if q.n < len(q.buf) {
		return
	}
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]Packet, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// drop removes the front packet, zeroing its slot so the ring keeps no
// payload reference alive.
func (q *ring) drop() {
	q.buf[q.head] = Packet{}
	q.head = q.slot(1)
	q.n--
}

// blockLen is the number of entries in one queue block: 51 entries and
// the link fill a 2 KiB allocation exactly.
const blockLen = 51

// block is a fixed run of destination-queue entries. A VM's queues
// take blocks from its free list and give each back once it is read
// out, so the blocks a VM owns follow its total backlog, not the sum of
// each destination's peak, and a queue grows without copying.
type block struct {
	e    [blockLen]entry
	next *block // the next block of the same queue, or of the free list
}

// fifo is one destination's queue: a chain of blocks, read at
// head.e[lo] and written at tail.e[hi]. An empty fifo holds no block.
type fifo struct {
	head, tail *block
	lo, hi     int
	n          int
}

func (q *fifo) front() *entry { return &q.head.e[q.lo] }

// push appends a slot at the back, taking a block from *free (or a new
// one) when the tail is full, and returns it for the caller to fill.
func (q *fifo) push(free **block) *entry {
	if q.tail == nil || q.hi == blockLen {
		b := *free
		if b == nil {
			b = new(block)
		} else {
			*free, b.next = b.next, nil
		}
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail, q.hi = b, 0
	}
	q.n++
	q.hi++
	return &q.tail.e[q.hi-1]
}

// drop removes the front entry, zeroing it so the queue keeps no
// payload reference alive, and returns a block it has read out to
// *free.
func (q *fifo) drop(free **block) {
	q.head.e[q.lo] = entry{}
	q.lo++
	q.n--
	if q.n > 0 && q.lo < blockLen {
		return
	}
	b := q.head
	q.head, q.lo = b.next, 0
	b.next, *free = *free, b
	if q.n == 0 {
		q.head, q.tail, q.hi = nil, nil, 0
	}
}
