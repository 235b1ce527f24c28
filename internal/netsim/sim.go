// Package netsim is a discrete-event, packet-level datacenter network
// simulator. It stands in for the paper's hardware testbed (§6.1) and
// ns2 simulations (§6.2): output-queued switches with finite per-port
// buffers, two 802.1q priority classes, ECN marking (for DCTCP),
// phantom queues (for HULL), store-and-forward links with propagation
// delay, and hosts whose NICs either transmit directly or through
// Silo's paced-IO-batching pacer with void packets.
//
// Void frames (MAC src == dst) are dropped by the first switch they
// traverse, exactly as in the paper; they consume wire time on the
// host→ToR link and nothing else.
//
// The event loop is allocation-free in steady state: event nodes are
// recycled through a freelist, the queue/host hot paths schedule typed
// events (no per-hop closures), and packets can be arena-allocated via
// AllocPacket/FreePacket.
//
// Time is int64 nanoseconds.
package netsim

import (
	"context"
	"math"
	"math/bits"
)

// Event kinds. evtFunc runs an arbitrary closure; the rest dispatch to
// preallocated receivers so the per-packet hot path allocates nothing.
const (
	evtFunc uint8 = iota
	// evtTxDone: serialization of ev.p at port ev.q completed.
	evtTxDone
	// evtArrive: ev.p finished propagating on ev.q's link; deliver to
	// ev.q.Next unless the link failed since (ev.gen snapshot).
	evtArrive
	// evtHostWire: ev.h's laid-out batch reached its head frame's wire
	// time; the one node per host walks the batch (see Host.fireWire).
	evtHostWire
	// evtHostLoop: re-arm of ev.h's batch loop (ev.gen is the loop
	// generation; stale wakes are ignored).
	evtHostLoop
	// evtTimer: a node of Timer s.timers[ev.gen] (see timer.go).
	evtTimer
)

// event is one scheduled occurrence. Nodes are recycled via the Sim's
// freelist; the typed fields keep the queue/host hot paths free of
// per-event closures.
type event struct {
	seq  uint64
	kind uint8
	gen  uint64
	fn   func()
	q    *Queue
	h    *Host
	p    *Packet
	next *event // slot-list / freelist link
}

// The timestamp wheel: 1 ns buckets spanning wheelSpan ns ahead of the
// clock. Every hot delay in the simulator — serialization (~1.2 µs for
// a 1500 B frame at 10 Gbps), propagation (hundreds of ns), generator
// gaps — fits the span, so the per-event queue cost is a bitmap probe
// and a list append instead of a heap sift. Events farther out go to a
// 4-ary overflow heap and execute from there directly. What lives
// there: one Timer node per connection with data in flight (the RTO,
// see timer.go), fault schedules and telemetry windows — hundreds of
// entries, touched rarely. A paced host's batch, laid out up to 50 µs
// ahead, is one node at its head frame's key that steps to the next
// frame when it fires (Host.fireWire); voids fill every gap inside a
// batch, so on 10 GbE the next frame is at most ≈1.2 µs away and the
// node stays in the wheel.
const (
	wheelBits  = 12
	wheelSpan  = 1 << wheelBits
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// heapEnt is one overflow-heap slot: the ordering key (time,
// scheduling sequence) inline next to the node pointer, so sift
// comparisons never dereference the node.
type heapEnt struct {
	t   int64
	seq uint64
	ev  *event
}

// Sim is the event loop: a timestamp wheel for near events plus an
// overflow heap for far ones, totally ordered by (time, scheduling
// sequence); an event-node freelist; and a packet arena. A Sim is
// single-threaded.
type Sim struct {
	now int64
	seq uint64

	// Wheel state. All wheel events have t in [now, now+wheelSpan), so
	// slot t&wheelMask is unambiguous; each slot is a FIFO list, which
	// equals seq order among equal times. bitmap marks occupied slots.
	nWheel   int
	bitmap   [wheelWords]uint64
	slotHead [wheelSpan]*event
	slotTail [wheelSpan]*event

	// far holds events at least wheelSpan ahead of the clock at
	// scheduling time, ordered by (t, seq).
	far []heapEnt

	freeEvents *event
	freePkts   *Packet

	// timers holds every Timer created on this Sim; an evtTimer node
	// names its timer by index, which keeps event at 64 bytes.
	timers []*Timer

	// rtc is the engine's structural-pressure accounting (see
	// runtime.go). Always on: every update is a plain compare or add
	// on this single-threaded struct.
	rtc SimCounters

	// subs holds the observation spine's subscribers per event kind,
	// in subscription order (see spine.go).
	subs [numEventKinds][]func(Event)
}

// NewSim returns an empty simulator at time 0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulation time in ns.
func (s *Sim) Now() int64 { return s.now }

// alloc returns a zeroed event node.
func (s *Sim) alloc() *event {
	ev := s.freeEvents
	if ev == nil {
		// Carve a chunk so cold starts do one allocation per 128
		// events instead of one each.
		s.rtc.EvMisses++
		chunk := make([]event, 128)
		for i := range chunk[:len(chunk)-1] {
			chunk[i].next = &chunk[i+1]
		}
		ev = &chunk[0]
	} else {
		s.rtc.EvHits++
	}
	s.freeEvents = ev.next
	ev.next = nil
	return ev
}

// release returns an executed event node to the freelist.
func (s *Sim) release(ev *event) {
	ev.fn = nil
	ev.q = nil
	ev.h = nil
	ev.p = nil
	ev.next = s.freeEvents
	s.freeEvents = ev
}

// AllocPacket returns a zeroed packet from the arena. Pair with
// FreePacket on the consuming end (delivery) to keep the steady-state
// hot path allocation-free; unpaired packets are simply reclaimed by the
// garbage collector. The engine itself frees every arena packet it
// loses: voids at the first switch, and every drop (buffer overflow, a
// failed port, switch or host, an unroutable destination).
func (s *Sim) AllocPacket() *Packet {
	p := s.freePkts
	if p == nil {
		s.rtc.PktMisses++
		chunk := make([]Packet, 256)
		for i := range chunk[:len(chunk)-1] {
			chunk[i].next = &chunk[i+1]
		}
		p = &chunk[0]
		s.freePkts = chunk[0].next
	} else {
		s.rtc.PktHits++
		s.freePkts = p.next
	}
	s.rtc.PktInUse++
	if s.rtc.PktInUse > s.rtc.PktHWM {
		s.rtc.PktHWM = s.rtc.PktInUse
	}
	*p = Packet{pooled: true}
	return p
}

// FreePacket recycles an arena packet. The caller must be done with
// every field, including Payload. A packet that did not come from
// AllocPacket, or is already free, is left alone, so a drop site need
// not know where its packet came from.
func (s *Sim) FreePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	s.rtc.PktInUse--
	p.pooled = false
	p.Payload = nil
	p.next = s.freePkts
	s.freePkts = p
}

// wheelNext returns the earliest wheel event's absolute time, or
// MaxInt64 when the wheel is empty. Wheel times live in
// [now, now+wheelSpan): slots at or after slot(now) belong to now's
// 4096 ns block, slots before it wrapped into the next block.
func (s *Sim) wheelNext() int64 {
	if s.nWheel == 0 {
		return math.MaxInt64
	}
	start := s.now & wheelMask
	base := s.now - start
	w0 := int(start >> 6)
	b0 := uint(start & 63)
	if word := s.bitmap[w0] >> b0; word != 0 {
		return base + int64(w0<<6) + int64(b0) + int64(bits.TrailingZeros64(word))
	}
	for w := w0 + 1; w < wheelWords; w++ {
		if word := s.bitmap[w]; word != 0 {
			return base + int64(w<<6) + int64(bits.TrailingZeros64(word))
		}
	}
	for w := 0; w < w0; w++ {
		if word := s.bitmap[w]; word != 0 {
			return base + wheelSpan + int64(w<<6) + int64(bits.TrailingZeros64(word))
		}
	}
	if word := s.bitmap[w0] & (1<<b0 - 1); word != 0 {
		return base + wheelSpan + int64(w0<<6) + int64(bits.TrailingZeros64(word))
	}
	return math.MaxInt64
}

// popSlot detaches and returns the head of slot's FIFO list.
func (s *Sim) popSlot(slot int64) *event {
	ev := s.slotHead[slot]
	if next := ev.next; next != nil {
		s.slotHead[slot] = next
	} else {
		s.slotHead[slot] = nil
		s.slotTail[slot] = nil
		s.bitmap[slot>>6] &^= 1 << uint(slot&63)
	}
	ev.next = nil
	s.nWheel--
	return ev
}

// farPush inserts ev at key (t, seq) into the overflow heap (4-ary:
// half the sift depth of a binary heap, children cache-adjacent).
func (s *Sim) farPush(t int64, seq uint64, ev *event) {
	h := append(s.far, heapEnt{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		pe := h[parent]
		if pe.t < t || (pe.t == t && pe.seq < seq) {
			break
		}
		h[i] = pe
		i = parent
	}
	h[i] = heapEnt{t: t, seq: seq, ev: ev}
	s.far = h
	if int64(len(h)) > s.rtc.FarHWM {
		s.rtc.FarHWM = int64(len(h))
	}
}

// farPop removes and returns the overflow heap's earliest event; the
// heap must be non-empty.
func (s *Sim) farPop() *event {
	h := s.far
	top := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n] = heapEnt{}
	h = h[:n]
	s.far = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := h[c]
			hi := c + 4
			if hi > n {
				hi = n
			}
			for j := c + 1; j < hi; j++ {
				if cj := h[j]; cj.t < m.t || (cj.t == m.t && cj.seq < m.seq) {
					c, m = j, cj
				}
			}
			if last.t < m.t || (last.t == m.t && last.seq < m.seq) {
				break
			}
			h[i] = m
			i = c
		}
		h[i] = last
	}
	return top
}

// schedule queues a typed event at absolute time t (clamped to now)
// under a fresh seq.
func (s *Sim) schedule(t int64, kind uint8, gen uint64, fn func(), q *Queue, h *Host, p *Packet) {
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.seq = s.seq
	s.seq++
	ev.kind = kind
	ev.gen = gen
	ev.fn = fn
	ev.q = q
	ev.h = h
	ev.p = p
	s.insertKeyed(t, ev)
}

// insertKeyed queues ev at key (t, ev.seq), t >= now. The seq may have
// been reserved earlier than seqs already queued — a Timer's arm-time
// seq, a paced frame's batch-time seq — so a wheel slot takes an
// ordered insert, which keeps each slot's list in seq order. A fresh
// seq is the largest yet, so the tail check makes the common case an
// append. Keys beyond the wheel span go to the overflow heap.
func (s *Sim) insertKeyed(t int64, ev *event) {
	if t-s.now >= wheelSpan {
		s.farPush(t, ev.seq, ev)
		return
	}
	slot := t & wheelMask
	switch tail := s.slotTail[slot]; {
	case tail == nil:
		s.slotHead[slot] = ev
		s.slotTail[slot] = ev
		s.bitmap[slot>>6] |= 1 << uint(slot&63)
	case tail.seq < ev.seq:
		tail.next = ev
		s.slotTail[slot] = ev
	case ev.seq < s.slotHead[slot].seq:
		ev.next = s.slotHead[slot]
		s.slotHead[slot] = ev
	default:
		prev := s.slotHead[slot]
		for prev.next.seq < ev.seq {
			prev = prev.next
		}
		ev.next = prev.next
		prev.next = ev
	}
	s.nWheel++
	if int64(s.nWheel) > s.rtc.WheelHWM {
		s.rtc.WheelHWM = int64(s.nWheel)
	}
}

// At schedules fn at absolute time t (clamped to now).
func (s *Sim) At(t int64, fn func()) {
	s.schedule(t, evtFunc, 0, fn, nil, nil, nil)
}

// After schedules fn after d nanoseconds.
func (s *Sim) After(d int64, fn func()) { s.At(s.now+d, fn) }

// exec dispatches one event and recycles its node.
func (s *Sim) exec(ev *event) {
	switch ev.kind {
	case evtFunc:
		fn := ev.fn
		s.release(ev)
		fn()
		return
	case evtTxDone:
		q, p, gen := ev.q, ev.p, ev.gen
		s.release(ev)
		q.txDone(p, gen)
	case evtArrive:
		q, p, gen := ev.q, ev.p, ev.gen
		s.release(ev)
		q.arrive(p, gen)
	case evtHostWire:
		ev.h.fireWire(ev)
	case evtHostLoop:
		h, gen := ev.h, ev.gen
		s.release(ev)
		if h.loopGen == gen {
			h.batchLoopFn()
		}
	case evtTimer:
		s.timers[ev.gen].pop(ev)
	}
}

// step pops and executes the earliest pending event if its time is at
// most limit; it reports whether an event ran. The wheel and the
// overflow heap are merged on (t, seq), so execution order is
// identical to a single totally ordered queue.
func (s *Sim) step(limit int64) bool {
	t := s.wheelNext()
	var ev *event
	if len(s.far) > 0 {
		ft := s.far[0]
		if ft.t < t || (ft.t == t && ft.seq < s.slotHead[t&wheelMask].seq) {
			if ft.t > limit {
				return false
			}
			ev, t = s.farPop(), ft.t
		}
	}
	if ev == nil {
		if t > limit || t == math.MaxInt64 {
			return false
		}
		ev = s.popSlot(t & wheelMask)
	}
	s.now = t
	s.rtc.Events++
	s.exec(ev)
	return true
}

// Run executes events until the queue drains or the clock passes
// until. Returns the number of events executed.
func (s *Sim) Run(until int64) int {
	n := 0
	for s.step(until) {
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunCtx is Run with cooperative cancellation: every 256 events (and
// before the first) it polls ctx and, when cancelled, returns
// immediately without advancing the clock to until — so a signal
// handler can stop a long run and the caller still flushes telemetry
// consistent with the time actually simulated. Returns the number of
// events executed.
func (s *Sim) RunCtx(ctx context.Context, until int64) int {
	n := 0
	for {
		if n&255 == 0 {
			select {
			case <-ctx.Done():
				return n
			default:
			}
		}
		if !s.step(until) {
			break
		}
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// ticker is Every's reusable rescheduling state: one ticker and one
// bound closure serve every tick, so a periodic flush costs zero
// allocations per tick in steady state.
type ticker struct {
	s      *Sim
	period int64
	until  int64
	next   int64
	fn     func(nowNs int64)
	tickFn func() // == tick, bound once
}

func (tk *ticker) tick() {
	t := tk.next
	tk.fn(t)
	tk.next = t + tk.period
	if tk.next <= tk.until {
		tk.s.At(tk.next, tk.tickFn)
	}
}

// Every schedules fn at now+period, now+2·period, ... for every tick
// not after untilNs. This is the clock-driven flush hook behind the
// continuous-telemetry rollup: the time-series capture and the SLO
// window flush ride the simulated clock, never the wall clock. The
// stop time is explicit so an idle simulation can still drain its
// event heap. The rescheduling closure is allocated once up front,
// not per tick.
func (s *Sim) Every(periodNs, untilNs int64, fn func(nowNs int64)) {
	if periodNs <= 0 || fn == nil {
		return
	}
	first := s.now + periodNs
	if first > untilNs {
		return
	}
	tk := &ticker{s: s, period: periodNs, until: untilNs, next: first, fn: fn}
	tk.tickFn = tk.tick
	s.At(first, tk.tickFn)
}

// Pending reports queued event nodes. A paced host's laid-out batch is
// one node however many frames it still holds.
func (s *Sim) Pending() int { return s.nWheel + len(s.far) }
