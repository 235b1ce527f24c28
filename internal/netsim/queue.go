package netsim

import "math"

// Receiver consumes packets after link propagation.
type Receiver interface {
	Receive(p *Packet)
}

// pktFIFO is a growable ring of packets. Unlike an append/head-slice
// FIFO it never abandons its backing array, so a steady-state queue
// allocates nothing per packet.
type pktFIFO struct {
	buf  []*Packet
	head int
	n    int
}

func (f *pktFIFO) push(p *Packet) {
	if f.n == len(f.buf) {
		grown := make([]*Packet, max(16, 2*len(f.buf)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
		}
		f.buf = grown
		f.head = 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
}

func (f *pktFIFO) pop() *Packet {
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return p
}

// Queue is one output-queued port: a finite buffer drained at a line
// rate onto a link with fixed propagation delay, feeding the next
// node. Two strict-priority FIFOs implement the 802.1q classes; the
// buffer is shared.
type Queue struct {
	sim *Sim
	// id is the topology directed-port ID (set by Build): the port the
	// spine's port events name.
	id int32
	// Name identifies the port in traces.
	Name string
	// RateBps is the drain rate in bytes/sec.
	RateBps float64
	// BufferBytes is the shared buffer; a packet that does not fit is
	// dropped.
	BufferBytes int
	// PropNs is the link propagation delay to the next node.
	PropNs int64
	// ECNThresholdBytes, if > 0, sets CE on ECN-capable packets when
	// the instantaneous queue exceeds it (DCTCP-style marking).
	ECNThresholdBytes int
	// Phantom, if non-nil, implements HULL's phantom queue: a virtual
	// counter drained at a fraction of line rate whose occupancy
	// drives marking, keeping real queues near-empty.
	Phantom *PhantomQueue
	// Next receives packets PropNs after serialization completes.
	Next Receiver
	// Stats accumulates counters.
	Stats Counters

	fifos    [numPrios]pktFIFO
	occupied int
	busy     bool
	// down marks a failed port: arrivals are fault-dropped, nothing
	// serializes. lossy is the gray-failure mode: arrivals are
	// fault-dropped but already-buffered traffic keeps draining.
	// failGen invalidates in-flight serialization/propagation closures
	// scheduled before the most recent Fail.
	down    bool
	lossy   bool
	failGen uint64

	// Serialization-time memo: traffic is dominated by one frame size,
	// so the float round trip runs once per size change, not per frame.
	serSize int
	serNs   int64
}

// NewQueue returns a port attached to sim.
func NewQueue(sim *Sim, name string, rateBps float64, bufBytes int, propNs int64, next Receiver) *Queue {
	return &Queue{sim: sim, Name: name, RateBps: rateBps, BufferBytes: bufBytes, PropNs: propNs, Next: next}
}

// Sim returns the event loop that owns the port.
func (q *Queue) Sim() *Sim { return q.sim }

// Occupied reports buffered bytes.
func (q *Queue) Occupied() int { return q.occupied }

// QueueDelayNs estimates the queuing delay a newly arrived packet
// would see: occupancy divided by rate.
func (q *Queue) QueueDelayNs() int64 {
	return int64(float64(q.occupied) / q.RateBps * 1e9)
}

// Enqueue admits a packet to the port.
func (q *Queue) Enqueue(p *Packet) {
	q.Stats.EnqueuedPkts++
	if q.down || q.lossy {
		q.faultDrop(p)
		return
	}
	q.sim.emit(Event{Kind: EvPortEnqueue, At: q.id, P: p, Arg: int64(q.occupied)})
	if q.Phantom != nil {
		if q.Phantom.Mark(q.sim.Now(), p.Size) && p.ECNCapable {
			p.CE = true
			q.Stats.ECNMarked++
		}
	} else if q.ECNThresholdBytes > 0 && p.ECNCapable && q.occupied >= q.ECNThresholdBytes {
		p.CE = true
		q.Stats.ECNMarked++
	}
	if q.occupied+p.Size > q.BufferBytes {
		q.Stats.DroppedPkts++
		q.Stats.DroppedBytes += int64(p.Size)
		q.sim.FreePacket(p)
		return
	}
	prio := p.Prio
	if prio < 0 || prio >= numPrios {
		prio = numPrios - 1
	}
	q.fifos[prio].push(p)
	q.occupied += p.Size
	if hw := int64(q.occupied); hw > q.Stats.HighWaterBytes {
		q.Stats.HighWaterBytes = hw
	}
	if !q.busy {
		q.transmitNext()
	}
}

// transmitNext starts serializing the head-of-line packet of the
// highest non-empty priority.
func (q *Queue) transmitNext() {
	if q.down {
		q.busy = false
		return
	}
	var p *Packet
	for prio := 0; prio < numPrios; prio++ {
		if q.fifos[prio].n > 0 {
			p = q.fifos[prio].pop()
			break
		}
	}
	if p == nil {
		q.busy = false
		return
	}
	q.busy = true
	serNs := q.serNs
	if p.Size != q.serSize || serNs == 0 {
		serNs = int64(math.Round(float64(p.Size) / q.RateBps * 1e9))
		q.serSize, q.serNs = p.Size, serNs
	}
	q.sim.emit(Event{Kind: EvPortTransmit, At: q.id, P: p, Arg: serNs})
	q.sim.schedule(q.sim.now+serNs, evtTxDone, q.failGen, nil, q, nil, p)
}

// txDone completes a serialization started by transmitNext.
func (q *Queue) txDone(p *Packet, gen uint64) {
	q.occupied -= p.Size
	if q.failGen != gen {
		// The port failed mid-serialization; the frame is lost on
		// the wire. Fail leaves the serializing head's bytes in
		// occupied — the subtract above settles them here.
		q.faultDrop(p)
		q.transmitNext()
		return
	}
	q.Stats.SentPkts++
	q.Stats.SentBytes += int64(p.Size)
	q.sim.schedule(q.sim.now+q.PropNs, evtArrive, gen, nil, q, nil, p)
	q.transmitNext()
}

// arrive completes a propagation: the packet reaches q.Next unless the
// link died while the frame was on the wire.
func (q *Queue) arrive(p *Packet, gen uint64) {
	if q.failGen != gen {
		q.faultDrop(p)
		return
	}
	q.Next.Receive(p)
}

// faultDrop meters a failure-caused loss and frees the packet.
func (q *Queue) faultDrop(p *Packet) {
	q.Stats.FaultDroppedPkts++
	q.Stats.FaultDroppedBytes += int64(p.Size)
	q.sim.FreePacket(p)
}

// Fail takes the port down: buffered packets are drained-and-dropped
// immediately, the packet currently serializing (and anything already
// propagating on the link) is dropped at its scheduled completion
// instead of delivered, and subsequent arrivals are fault-dropped
// until Restore. All failure losses land in Stats.FaultDroppedPkts /
// FaultDroppedBytes, never in the congestion-drop counters. Idempotent
// while down.
func (q *Queue) Fail() {
	if q.down {
		return
	}
	q.down = true
	q.failGen++
	for prio := range q.fifos {
		for q.fifos[prio].n > 0 {
			p := q.fifos[prio].pop()
			q.occupied -= p.Size
			q.faultDrop(p)
		}
	}
	// The serializing head-of-line packet (if any) still owns its
	// occupied bytes; its completion event observes the generation
	// bump, subtracts them, and fault-drops the packet.
}

// SetLossy toggles gray failure: the port stays nominally up (buffered
// traffic drains, the drain loop runs) but every new arrival is
// fault-dropped. Models a flaky transceiver rather than a cut fiber.
func (q *Queue) SetLossy(on bool) {
	q.lossy = on
}

// Restore brings a failed (or lossy) port back into service. The
// buffer restarts empty; traffic enqueued after Restore flows
// normally.
func (q *Queue) Restore() {
	wasDown := q.down
	q.down = false
	q.lossy = false
	if wasDown && !q.busy {
		q.transmitNext()
	}
}

// Down reports whether the port is failed.
func (q *Queue) Down() bool { return q.down }

// Lossy reports whether the port is in gray-failure mode.
func (q *Queue) Lossy() bool { return q.lossy }

// PhantomQueue is HULL's virtual queue: it counts bytes as if drained
// at gamma × line rate and requests marking when the virtual backlog
// exceeds the threshold. It never holds real packets.
type PhantomQueue struct {
	// DrainBps is gamma × line rate (HULL uses gamma ≈ 0.95).
	DrainBps float64
	// MarkThresholdBytes triggers CE marks.
	MarkThresholdBytes float64

	backlog float64
	last    int64
}

// NewPhantomQueue returns a phantom queue.
func NewPhantomQueue(drainBps, thresholdBytes float64) *PhantomQueue {
	return &PhantomQueue{DrainBps: drainBps, MarkThresholdBytes: thresholdBytes}
}

// Mark accounts n bytes arriving at time now and reports whether the
// packet should be CE-marked.
func (pq *PhantomQueue) Mark(now int64, n int) bool {
	if now > pq.last {
		pq.backlog -= pq.DrainBps * float64(now-pq.last) / 1e9
		if pq.backlog < 0 {
			pq.backlog = 0
		}
		pq.last = now
	}
	pq.backlog += float64(n)
	return pq.backlog > pq.MarkThresholdBytes
}

// Backlog reports the current virtual backlog in bytes.
func (pq *PhantomQueue) Backlog(now int64) float64 {
	b := pq.backlog
	if now > pq.last {
		b -= pq.DrainBps * float64(now-pq.last) / 1e9
		if b < 0 {
			b = 0
		}
	}
	return b
}
