// Package runtime is the engine self-observability plane: where every
// other obs package watches the simulated network, this one watches the
// simulator. It snapshots the netsim engine counters (timestamp-wheel
// and overflow-heap high-water marks, freelist/arena hit rates) into a
// Stats report and exports the silo_runtime_* Prometheus families.
//
// Everything here is pull-time: collection reads plain counters that
// the engine maintains anyway, so attaching the plane never touches the
// event-loop hot path.
package runtime

import (
	"repro/internal/netsim"
	"repro/internal/obs"
)

// EngineStats is the engine's structural-pressure counters plus the
// hit rates derived from them.
type EngineStats struct {
	netsim.SimCounters
	// Hit rates in [0,1]; 1 when there was no traffic. A miss carves a
	// whole chunk (128 events / 256 packets), so rates sit near 1 in
	// steady state.
	EvHitRate  float64 `json:"ev_hit_rate"`
	PktHitRate float64 `json:"pkt_hit_rate"`
}

// Stats is the runtime-plane report: the dashboard payload's "runtime"
// object.
type Stats struct {
	Engine EngineStats `json:"engine"`
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// Collect snapshots the network's engine counters into a Stats report.
func Collect(nw *netsim.Network) Stats {
	c := nw.Sim.RuntimeCounters()
	return Stats{Engine: EngineStats{
		SimCounters: c,
		EvHitRate:   hitRate(c.EvHits, c.EvMisses),
		PktHitRate:  hitRate(c.PktHits, c.PktMisses),
	}}
}

// Register exposes the runtime plane as silo_runtime_* metric families
// on reg, all as pull-time gauge functions over the live engine
// counters — zero hot-path cost, values read at snapshot/export time.
func Register(reg *obs.Registry, nw *netsim.Network) {
	if reg == nil || nw == nil {
		return
	}
	gauge := func(name, help string, f func(netsim.SimCounters) int64) {
		reg.GaugeFunc(name, help, func() float64 { return float64(f(nw.Sim.RuntimeCounters())) })
	}
	gauge("silo_runtime_events_total",
		"events executed across all engine loops",
		func(c netsim.SimCounters) int64 { return c.Events })
	gauge("silo_runtime_wheel_hwm",
		"worst timestamp-wheel population of any single engine",
		func(c netsim.SimCounters) int64 { return c.WheelHWM })
	gauge("silo_runtime_overflow_heap_hwm",
		"worst overflow-heap depth of any single engine",
		func(c netsim.SimCounters) int64 { return c.FarHWM })
	gauge("silo_runtime_event_freelist_hits_total",
		"event-node allocations served from the freelist",
		func(c netsim.SimCounters) int64 { return c.EvHits })
	gauge("silo_runtime_event_freelist_misses_total",
		"event-node chunk carves (128 nodes each)",
		func(c netsim.SimCounters) int64 { return c.EvMisses })
	gauge("silo_runtime_packet_arena_hits_total",
		"packet allocations served from the arena freelist",
		func(c netsim.SimCounters) int64 { return c.PktHits })
	gauge("silo_runtime_packet_arena_misses_total",
		"packet-arena chunk carves (256 packets each)",
		func(c netsim.SimCounters) int64 { return c.PktMisses })
	gauge("silo_runtime_packet_arena_in_use",
		"packets currently allocated from the arenas",
		func(c netsim.SimCounters) int64 { return c.PktInUse })
	gauge("silo_runtime_packet_arena_hwm",
		"summed per-engine packet-arena high-water marks",
		func(c netsim.SimCounters) int64 { return c.PktHWM })
}
