package netsim

import (
	"testing"

	"repro/internal/obs"
)

// The silo_runtime_* families close RegisterMetrics, in this order, and
// read the live engine counters.
func TestRegisterMetricsRuntimeFamilies(t *testing.T) {
	nw := runCrossPodWorkload(t, 100)
	reg := obs.NewRegistry()
	nw.RegisterMetrics(reg)

	c := nw.Sim.RuntimeCounters()
	want := []struct {
		name string
		v    int64
	}{
		{"silo_runtime_events_total", c.Events},
		{"silo_runtime_wheel_hwm", c.WheelHWM},
		{"silo_runtime_overflow_heap_hwm", c.FarHWM},
		{"silo_runtime_event_freelist_hits_total", c.EvHits},
		{"silo_runtime_event_freelist_misses_total", c.EvMisses},
		{"silo_runtime_packet_arena_hits_total", c.PktHits},
		{"silo_runtime_packet_arena_misses_total", c.PktMisses},
		{"silo_runtime_packet_arena_in_use", c.PktInUse},
		{"silo_runtime_packet_arena_hwm", c.PktHWM},
	}
	entries := reg.Snapshot().Entries
	if len(entries) < len(want) {
		t.Fatalf("%d families registered", len(entries))
	}
	tail := entries[len(entries)-len(want):]
	for i, w := range want {
		if got := tail[i]; got.Name != w.name || got.Value != float64(w.v) {
			t.Errorf("family %d from the end is %s = %v, want %s = %d", len(want)-i, got.Name, got.Value, w.name, w.v)
		}
	}
	if c.Events == 0 {
		t.Error("no events counted")
	}
	nw.RegisterMetrics(nil) // a nil registry is a no-op
}
