package netsim

// SimCounters is the engine's self-telemetry: where the rest of the
// repository watches the simulated network, these watch the simulator.
// They are always-on plain integers embedded in every Sim, tracking
// pressure on the engine's three core structures — the timestamp
// wheel, the overflow heap, and the event/packet freelists — at the
// cost of a compare or an increment per touch. All values are monotone
// except PktInUse (the live arena population). RuntimeStats adds the hit
// rates; the JSON names are series.json's runtime.engine block.
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
	// PktHits / PktMisses do the same for the packet arena (240-packet
	// chunks, pktChunk).
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

// EngineStats is the engine's structural-pressure counters plus the hit
// rates derived from them.
type EngineStats struct {
	SimCounters
	// Hit rates in [0,1]; 1 when there was no traffic. A miss carves a
	// whole chunk (128 events / 240 packets), so rates sit near 1 in
	// steady state.
	EvHitRate  float64 `json:"ev_hit_rate"`
	PktHitRate float64 `json:"pkt_hit_rate"`
}

// RuntimeStats is the engine self-telemetry report: series.json's
// "runtime" object.
type RuntimeStats struct {
	Engine EngineStats `json:"engine"`
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// RuntimeStats snapshots this Sim's engine counters with their hit
// rates.
func (s *Sim) RuntimeStats() RuntimeStats {
	c := s.rtc
	return RuntimeStats{Engine: EngineStats{
		SimCounters: c,
		EvHitRate:   hitRate(c.EvHits, c.EvMisses),
		PktHitRate:  hitRate(c.PktHits, c.PktMisses),
	}}
}
