package netsim

// PortWindowTracker is the live culprit-port attributor behind the SLO
// plane's events: per directed port it tracks the worst estimated
// queueing delay (occupancy found on arrival divided by the port's
// drain rate) inside the current telemetry window. It subscribes to the
// spine's port-enqueue events — a handful of integer ops per packet,
// zero allocations — so each window's close can name the port that
// queued the packets behind a violation without the flight recorder
// running.
//
// The harness drives the window lifecycle: call WorstPort when the
// window closes, then Reset to open the next window. Both walk only the
// ports that queued in the window, not the whole fabric.
type PortWindowTracker struct {
	queues   []*Queue
	maxBytes []int64 // per port ID, current window
	touched  []int32 // ports with maxBytes > 0, in first-enqueue order
}

// AttachPortWindowTracker tracks windows on every port of the network.
func AttachPortWindowTracker(nw *Network) *PortWindowTracker {
	n := len(nw.Queues)
	t := &PortWindowTracker{
		queues:   nw.Queues,
		maxBytes: make([]int64, n),
		touched:  make([]int32, 0, n), // never grows: Reset reuses it
	}
	nw.Sim.Subscribe(func(ev Event) { t.enqueue(ev.At, ev.Arg) }, EvPortEnqueue)
	return t
}

// enqueue notes that a packet arriving at port found b bytes queued.
func (t *PortWindowTracker) enqueue(port int32, b int64) {
	if b <= t.maxBytes[port] {
		return
	}
	if t.maxBytes[port] == 0 {
		t.touched = append(t.touched, port)
	}
	t.maxBytes[port] = b
}

// WorstPort returns the port with the largest estimated queueing delay
// in the current window, the lowest port ID among equals, or -1, 0 when
// no port queued anything.
func (t *PortWindowTracker) WorstPort() (port int32, queueNs int64) {
	port = -1
	for _, id := range t.touched {
		d := int64(float64(t.maxBytes[id]) / t.queues[id].RateBps * 1e9)
		if d > queueNs || (d == queueNs && d > 0 && id < port) {
			port, queueNs = id, d
		}
	}
	return port, queueNs
}

// Reset opens the next window. Zero allocations.
func (t *PortWindowTracker) Reset() {
	for _, id := range t.touched {
		t.maxBytes[id] = 0
	}
	t.touched = t.touched[:0]
}
