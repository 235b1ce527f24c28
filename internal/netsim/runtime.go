package netsim

// SimCounters is the engine's self-telemetry: where the rest of the
// repository watches the simulated network, these watch the simulator.
// They are always-on plain integers embedded in every Sim, tracking
// pressure on the engine's three core structures — the timestamp
// wheel, the overflow heap, and the event/packet freelists — at the
// cost of a compare or an increment per touch. All values are monotone
// except PktInUse (the live arena population). internal/obs/runtime
// adds the hit rates and exports the silo_runtime_* metric families;
// the JSON names are the dashboard payload's.
type SimCounters struct {
	// Events is the number of events this Sim has executed.
	Events int64 `json:"events"`
	// WheelHWM / FarHWM are high-water marks of the timestamp wheel
	// population and the overflow-heap depth.
	WheelHWM int64 `json:"wheel_hwm"`
	FarHWM   int64 `json:"far_hwm"`
	// EvHits / EvMisses split event-node allocations into freelist
	// reuse vs. fresh 128-node chunk carves.
	EvHits   int64 `json:"ev_hits"`
	EvMisses int64 `json:"ev_misses"`
	// PktHits / PktMisses do the same for the packet arena (256-packet
	// chunks).
	PktHits   int64 `json:"pkt_hits"`
	PktMisses int64 `json:"pkt_misses"`
	// PktInUse is the current arena population (allocs minus frees;
	// packets reclaimed by the GC instead of FreePacket stay counted),
	// PktHWM its high-water mark.
	PktInUse int64 `json:"pkt_in_use"`
	PktHWM   int64 `json:"pkt_hwm"`
}

// RuntimeCounters returns a copy of this Sim's engine counters.
func (s *Sim) RuntimeCounters() SimCounters { return s.rtc }
