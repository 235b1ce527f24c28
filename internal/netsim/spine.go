package netsim

// The observation spine: the one way a plane (the flight recorder, the
// delivery auditor, introspection, the window tick's port-window
// tracker) reads the data path. A plane subscribes once on the Sim
// for the kinds it needs; each emit site calls its kind's subscribers in
// subscription order, so planes compose without knowing of each other
// and a kind nobody subscribed to costs its emit site one length check.

// EventKind names a point in a packet's life. There is one kind per
// point some plane reads.
type EventKind uint8

// Event kinds, in lifecycle order.
const (
	// EvPacedEnqueue: data packet P entered its VM's token-bucket chain
	// on host At, before any pacing delay accrued.
	EvPacedEnqueue EventKind = iota
	// EvPacedWire: host At's batch loop laid paced data packet P on the
	// wire, with the pacer's release stamp and gating bucket copied onto
	// it (P.PacedRelease, P.Gate). Void frames are not emitted, so a
	// subscriber needs no "was this paced?" heuristic.
	EvPacedWire
	// EvPortEnqueue: P arrived at port At (a topology directed-port ID);
	// Arg is the bytes the port held on arrival. Emitted before the
	// buffer check, so packets the port then drops are seen too.
	EvPortEnqueue
	// EvPortTransmit: port At began serializing P; Arg is the exact
	// serialization time in ns the port charges. With EvPortEnqueue it
	// brackets P's queueing delay at the port to the nanosecond.
	EvPortTransmit
	// EvDeliver: host At delivered data packet P; Arg is its NIC-to-NIC
	// delay in ns (now minus P.SentAt, the wire stamp).
	EvDeliver
	numEventKinds
)

// Event is one packet-lifecycle event. Its time is Sim.Now(). P is valid
// only during the call: the packet arena recycles packets once they are
// delivered, so a subscriber copies out what it keeps.
type Event struct {
	Kind EventKind
	At   int32
	P    *Packet
	Arg  int64
}

// Subscribe registers fn for the given kinds. fn is called on the
// simulation goroutine, after every subscriber registered before it;
// there is no unsubscribe.
func (s *Sim) Subscribe(fn func(Event), kinds ...EventKind) {
	for _, k := range kinds {
		s.subs[k] = append(s.subs[k], fn)
	}
}

// emit calls ev.Kind's subscribers in subscription order.
func (s *Sim) emit(ev Event) {
	for _, fn := range s.subs[ev.Kind] {
		fn(ev)
	}
}
