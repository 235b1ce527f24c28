package netsim

// PortWindowTracker is the live culprit-port attributor behind the SLO
// engine's burn-rate events: per directed port it tracks the worst
// estimated queueing delay (occupancy found on arrival divided by the
// port's drain rate) inside the current telemetry window. It subscribes
// to the spine's port-enqueue events — a handful of integer ops per
// packet, zero allocations — and structurally implements
// slo.Attributor, so the engine can name the port that queued the
// packets behind a violation without the flight recorder running.
//
// The harness drives the window lifecycle: call WorstPort during the
// flush (the engine does), then Reset to open the next window.
type PortWindowTracker struct {
	maxDelayNs []int64 // per port ID, current window
	maxBytes   []int64
}

// AttachPortWindowTracker tracks windows on every port of the network.
func AttachPortWindowTracker(nw *Network) *PortWindowTracker {
	t := &PortWindowTracker{
		maxDelayNs: make([]int64, len(nw.Queues)),
		maxBytes:   make([]int64, len(nw.Queues)),
	}
	queues := nw.Queues
	nw.Sim.Subscribe(func(ev Event) {
		if b := ev.Arg; b > t.maxBytes[ev.At] {
			t.maxBytes[ev.At] = b
			t.maxDelayNs[ev.At] = int64(float64(b) / queues[ev.At].RateBps * 1e9)
		}
	}, EvPortEnqueue)
	return t
}

// WorstPort returns the port with the largest estimated queueing delay
// in the current window (the time-range arguments are satisfied by the
// window lifecycle: the tracker holds exactly the window the engine is
// flushing). ok is false when no port queued anything. Implements
// slo.Attributor.
func (t *PortWindowTracker) WorstPort(_, _ int64) (port int32, queueNs int64, ok bool) {
	if t == nil {
		return -1, 0, false
	}
	best := -1
	var bestNs int64
	for id, d := range t.maxDelayNs {
		if d > bestNs {
			best, bestNs = id, d
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return int32(best), bestNs, true
}

// WindowMaxBytes returns the worst occupancy seen at port id in the
// current window (0 for idle or out-of-range ports).
func (t *PortWindowTracker) WindowMaxBytes(id int) int64 {
	if t == nil || id < 0 || id >= len(t.maxBytes) {
		return 0
	}
	return t.maxBytes[id]
}

// Reset opens the next window. Zero allocations.
func (t *PortWindowTracker) Reset() {
	if t == nil {
		return
	}
	for i := range t.maxDelayNs {
		t.maxDelayNs[i] = 0
		t.maxBytes[i] = 0
	}
}
