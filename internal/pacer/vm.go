package pacer

import (
	"fmt"
	"math"
)

// Packet is one frame handed to the pacer (data) or synthesized by the
// batcher (void).
type Packet struct {
	// Bytes is the on-wire frame size including Ethernet overhead.
	Bytes int
	// SrcVM and DstVM identify endpoints for hose accounting.
	SrcVM, DstVM int
	// Void marks a spacer frame (MAC src == MAC dst) that the first
	// switch drops.
	Void bool
	// Release is the earliest ns at which the frame may leave the NIC,
	// assigned when the scheduler commits the packet (-1 while it
	// waits in its destination queue).
	Release int64
	// Gate records which token bucket determined Release (Gate*
	// constants; GateNone when the packet was immediately feasible).
	// Set at commit time; flight-recorder attribution reads it.
	Gate uint8
	// Wire is the ns at which the batcher actually laid the frame on
	// the wire (set during batch building).
	Wire int64
	// Ref carries an opaque payload reference for integrations (e.g.
	// the simulator's packet).
	Ref interface{}

	enq int64  // enqueue time
	seq uint64 // FIFO tiebreak within equal Release
}

// MinVoidBytes is the smallest legal Ethernet frame including preamble
// and inter-frame gap: 84 bytes, 67.2 ns at 10 GbE (paper §4.3.1).
const MinVoidBytes = 84

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
	q    pktRing      // unscheduled packets, FIFO
	pos  int          // index in VM.backlog while q is non-empty
	// seen records that traffic was queued toward id and the record is
	// in VM.dests (SetDestRate alone does not make a destination
	// visible to the coordinator).
	seen bool

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
	ready   pktRing // committed packets in (Release, seq) order
	seq     uint64

	// frames is the host's free list (nil for a VM no HostPacer owns:
	// every Enqueue then allocates and nothing is recycled).
	frames *framePool

	queuedTotal int64      // bytes awaiting commit across all destinations
	mx          *VMMetrics // nil = uninstrumented (one branch per event)

	// onCommit, if set, observes every committed emission (release
	// stamp, wire bytes) — the introspection plane's envelope tap.
	onCommit func(releaseNs int64, bytes int)
}

// NewVM returns a pacer for one VM, with buckets full at time start.
func NewVM(id int, g Guarantee, start int64) *VM {
	if g.MTUBytes <= 0 {
		g.MTUBytes = 1500
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

// Guarantee returns the VM's pacer configuration.
func (v *VM) Guarantee() Guarantee { return v.g }

// SetMetrics attaches (or detaches, with nil) telemetry to the VM.
func (v *VM) SetMetrics(m *VMMetrics) { v.mx = m }

// SetCommitTap installs fn to observe every packet the scheduler
// commits through the bucket chain, carrying the exact release stamp
// and wire bytes the {B, S} buckets authorized. Commits are produced
// in nondecreasing release order, so fn may feed a streaming envelope
// estimator directly. One tap per VM; nil detaches. The tap runs on
// the VM's scheduling path, so it must not allocate or block.
func (v *VM) SetCommitTap(fn func(releaseNs int64, bytes int)) { v.onCommit = fn }

// QueuedBytesTo reports bytes awaiting release toward dst.
func (v *VM) QueuedBytesTo(dst int) int64 {
	if d := v.byID[dst]; d != nil {
		return d.queuedBytes
	}
	return 0
}

// SentBytesTo reports cumulative bytes committed toward dst.
func (v *VM) SentBytesTo(dst int) int64 {
	if d := v.byID[dst]; d != nil {
		return d.sentBytes
	}
	return 0
}

// Destinations lists every destination this VM has ever queued traffic
// toward, in first-seen order (used by the hose coordinator to
// enumerate candidate flows).
func (v *VM) Destinations() []int {
	out := make([]int, len(v.dests))
	for i, d := range v.dests {
		out[i] = d.id
	}
	return out
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
		return d.hose.Rate()
	}
	return 0
}

// Enqueue admits one data packet into its destination queue. The
// release stamp is assigned later, when the scheduler commits the
// packet in chronological order. On a VM registered with a HostPacer
// the frame comes from the host's free list and returns to it once
// NextBatch has handed it out (see HostPacer.NextBatch); the returned
// pointer must not be kept past that point.
func (v *VM) Enqueue(now int64, dstVM, bytes int, ref interface{}) *Packet {
	p := v.frames.get()
	*p = Packet{
		Bytes:   bytes,
		SrcVM:   v.ID,
		DstVM:   dstVM,
		Release: -1,
		Ref:     ref,
		enq:     now,
		seq:     v.seq,
	}
	v.seq++
	d := v.destFor(dstVM)
	if !d.seen {
		d.seen = true
		v.dests = append(v.dests, d)
	}
	if d.q.n == 0 {
		d.pos = len(v.backlog)
		v.backlog = append(v.backlog, d)
	}
	d.q.pushBack(p)
	v.queued++
	d.queuedBytes += int64(bytes)
	v.queuedTotal += int64(bytes)
	v.mx.noteQueued(v.queuedTotal)
	return p
}

// headRelease returns the earliest release for d's head packet given
// current bucket states, without committing, plus the gating bucket
// (the last stage that pushed the release later). A single forward
// pass is exact: token balances only grow with time, so feasibility at
// a later stage never invalidates an earlier one.
func (v *VM) headRelease(d *dest) (int64, uint8) {
	p := d.q.front()
	n := p.Bytes
	if !d.stageOK {
		d.stageR, d.stageGate, d.stageOK = p.enq, GateNone, true
		if d.hose != nil {
			if f := d.hose.Free(p.enq, n); f > p.enq {
				d.stageR, d.stageGate = f, GateDest
			}
		}
	}
	r, gate := d.stageR, d.stageGate
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
func (v *VM) Schedule(upTo int64) {
	for len(v.backlog) > 0 {
		var best *dest
		bestR := int64(math.MaxInt64)
		var bestSeq uint64
		var bestGate uint8
		for _, d := range v.backlog {
			r, gate := v.headRelease(d)
			if seq := d.q.front().seq; best == nil || r < bestR || (r == bestR && seq < bestSeq) {
				best, bestR, bestSeq, bestGate = d, r, seq, gate
			}
		}
		if bestR > upTo {
			break
		}
		p := best.q.popFront()
		best.stageOK = false
		if best.q.n == 0 {
			last := v.backlog[len(v.backlog)-1]
			v.backlog[best.pos] = last
			last.pos = best.pos
			v.backlog = v.backlog[:len(v.backlog)-1]
		}
		v.queued--
		best.queuedBytes -= int64(p.Bytes)
		best.sentBytes += int64(p.Bytes)
		v.queuedTotal -= int64(p.Bytes)
		// Commit through the chain at the final release time.
		if best.hose != nil {
			best.hose.Commit(bestR, p.Bytes)
		}
		v.avg.Commit(bestR, p.Bytes)
		v.cap.Commit(bestR, p.Bytes)
		p.Release = bestR
		p.Gate = bestGate
		v.mx.noteCommit(p, bestR, v.queuedTotal)
		if v.onCommit != nil {
			v.onCommit(bestR, p.Bytes)
		}
		v.ready.insert(p)
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
func (v *VM) PopReady(horizon int64) (*Packet, bool) {
	if v.ready.n == 0 || v.ready.front().Release > horizon {
		return nil, false
	}
	return v.ready.popFront(), true
}

// unpop returns the packet PopReady just handed out to the front of
// the ready queue (the batcher found its window consumed by padding).
func (v *VM) unpop(p *Packet) { v.ready.pushFront(p) }

func (v *VM) String() string {
	return fmt.Sprintf("VM(%d: B=%.0f S=%.0f Bmax=%.0f, %d queued)",
		v.ID, v.g.BandwidthBps, v.g.BurstBytes, v.g.BurstRateBps, v.Pending())
}

// pktRing is a FIFO of packets in a power-of-two ring. The destination
// queues use it as a plain queue; the ready queue also inserts in
// (Release, seq) order from the tail.
type pktRing struct {
	buf  []*Packet
	head int // index of the front element
	n    int
}

func (q *pktRing) front() *Packet { return q.buf[q.head] }

// slot maps a queue position (0 = front) to its buffer index.
func (q *pktRing) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// grow doubles the buffer when it is full, unrolling the ring.
func (q *pktRing) grow() {
	if q.n < len(q.buf) {
		return
	}
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*Packet, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func (q *pktRing) pushBack(p *Packet) {
	q.grow()
	q.buf[q.slot(q.n)] = p
	q.n++
}

func (q *pktRing) pushFront(p *Packet) {
	q.grow()
	q.head = q.slot(len(q.buf) - 1)
	q.buf[q.head] = p
	q.n++
}

func (q *pktRing) popFront() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = q.slot(1)
	q.n--
	return p
}

// insert places a committed packet in (Release, seq) order. Commits
// arrive in that order whenever the {B,S} bucket has a rate (its
// virtual clock never moves back), so the walk from the tail is
// normally zero steps; with an unlimited bucket a later enqueue can
// commit ahead of packets already waiting, and the walk keeps the pop
// order exactly what a priority queue would give.
func (q *pktRing) insert(p *Packet) {
	q.grow()
	i := q.n
	for i > 0 {
		prev := q.buf[q.slot(i-1)]
		if prev.Release < p.Release || (prev.Release == p.Release && prev.seq < p.seq) {
			break
		}
		q.buf[q.slot(i)] = prev
		i--
	}
	q.buf[q.slot(i)] = p
	q.n++
}

// framePool is one host's free list of frames. A nil pool always
// allocates and never keeps anything.
type framePool struct {
	free []*Packet
}

func (fp *framePool) get() *Packet {
	if fp == nil || len(fp.free) == 0 {
		return new(Packet)
	}
	p := fp.free[len(fp.free)-1]
	fp.free = fp.free[:len(fp.free)-1]
	return p
}

// put recycles a frame the batcher has handed out. Ref is dropped so
// the free list never keeps the simulator's packet alive; get's callers
// overwrite the rest.
func (fp *framePool) put(p *Packet) {
	p.Ref = nil
	fp.free = append(fp.free, p)
}
