package netsim

// Timer is a re-armable one-shot engine timer: created once with a
// bound callback, then armed, re-armed and stopped any number of times
// with no allocation and at most one live event node in the queue. It
// exists for timers that are re-armed far more often than they fire —
// a retransmission timer is pushed 200 ms ahead on every ack and
// expires once in a million arms.
//
// Firing order is exactly that of scheduling a fresh At event on every
// Arm and ignoring all but the last: the firing key is (deadline,
// engine seq taken at the last Arm). Arm therefore always consumes one
// seq, but only queues a node when none is queued or the new deadline
// is earlier than the queued node's. Otherwise the queued node is left
// where it is; when it pops and finds the timer re-armed since, it is
// queued again at the current key through Sim.insertKeyed, which puts
// a key with an old seq in its place among the events already queued.
//
// A Timer belongs to its Sim and shares its single-threadedness.
type Timer struct {
	s  *Sim
	fn func()
	id uint64 // index in s.timers, carried by the node as ev.gen

	// The firing key, valid while armed.
	deadline int64
	seq      uint64
	armed    bool

	// The live queued node's key. A node whose seq is not nodeSeq was
	// superseded by a re-arm to an earlier deadline and dies when it
	// pops.
	nodeT   int64
	nodeSeq uint64
	queued  bool
}

// NewTimer returns a stopped timer that runs fn when it expires. Bind
// fn once (a method value, say); Arm and Stop never allocate.
func (s *Sim) NewTimer(fn func()) *Timer {
	tm := &Timer{s: s, fn: fn, id: uint64(len(s.timers))}
	s.timers = append(s.timers, tm)
	return tm
}

// Arm sets the timer to fire at absolute time t (clamped to now),
// replacing any earlier deadline.
func (tm *Timer) Arm(t int64) {
	s := tm.s
	if t < s.now {
		t = s.now
	}
	tm.deadline, tm.seq, tm.armed = t, s.seq, true
	if tm.queued && t >= tm.nodeT {
		s.seq++
		return
	}
	// schedule gives the node s.seq, the seq recorded above.
	s.schedule(t, evtTimer, tm.id, nil, nil, nil, nil)
	tm.nodeT, tm.nodeSeq, tm.queued = t, tm.seq, true
}

// Stop disarms the timer. The queued node, if any, stays until it pops.
func (tm *Timer) Stop() { tm.armed = false }

// pop handles one of the timer's nodes reaching the head of the queue.
func (tm *Timer) pop(ev *event) {
	s := tm.s
	switch {
	case ev.seq != tm.nodeSeq:
		// Superseded by an earlier re-arm.
		s.release(ev)
	case !tm.armed:
		tm.queued = false
		s.release(ev)
	case ev.seq != tm.seq:
		// Re-armed since this node was queued: its key moved to a later
		// (deadline, seq). Same node, new key.
		ev.seq = tm.seq
		tm.nodeT, tm.nodeSeq = tm.deadline, tm.seq
		s.insertKeyed(tm.deadline, ev)
	default:
		tm.armed, tm.queued = false, false
		s.release(ev)
		tm.fn()
	}
}
