package netsim

import (
	"repro/internal/obs"
)

// RegisterMetrics exposes the network's per-port counters through an
// obs registry. Everything is registered as pull-time gauge functions
// reading the queues' plain counters, so the simulator hot path stays
// untouched: the cost is paid at snapshot/export time only, and a nil
// registry is a no-op.
//
// Per directed port (label port="<name>"):
//
//	silo_netsim_queue_hwm_bytes   worst occupancy seen (incl. arrival)
//	silo_netsim_dropped_pkts      overflow drops at the port
//	silo_netsim_fault_dropped_pkts  failure losses at the port
//	silo_netsim_sent_bytes        bytes serialized
//
// Fabric-wide:
//
//	silo_netsim_drops_total       overflow drops across switch ports
//	silo_netsim_fault_drops_total failure losses (ports+switches+hosts)
//	silo_netsim_voids_dropped_total  void frames absorbed at first hop
//	silo_netsim_goodput_bytes     non-void bytes delivered to hosts
//
// The engine itself (SimCounters): events executed, timestamp-wheel and
// overflow-heap high-water marks, event-freelist and packet-arena hits
// and misses, arena population, as silo_runtime_*.
func (nw *Network) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, q := range nw.Queues {
		if q == nil {
			continue
		}
		q := q
		reg.GaugeFunc("silo_netsim_queue_hwm_bytes",
			"worst queue occupancy observed at the port (bytes)",
			func() float64 { return float64(q.Stats.HighWaterBytes) },
			"port", q.Name)
		reg.GaugeFunc("silo_netsim_dropped_pkts",
			"packets dropped at the port (buffer overflow only)",
			func() float64 { return float64(q.Stats.DroppedPkts) },
			"port", q.Name)
		reg.GaugeFunc("silo_netsim_fault_dropped_pkts",
			"packets lost at the port to injected failures",
			func() float64 { return float64(q.Stats.FaultDroppedPkts) },
			"port", q.Name)
		reg.GaugeFunc("silo_netsim_sent_bytes",
			"bytes serialized by the port",
			func() float64 { return float64(q.Stats.SentBytes) },
			"port", q.Name)
	}
	reg.GaugeFunc("silo_netsim_drops_total",
		"packet drops across all switch ports (buffer overflow only)",
		func() float64 { return float64(nw.TotalDrops()) })
	reg.GaugeFunc("silo_netsim_fault_drops_total",
		"failure-caused packet losses fabric-wide (ports, switches, hosts)",
		func() float64 { return float64(nw.TotalFaultDrops()) })
	reg.GaugeFunc("silo_netsim_voids_dropped_total",
		"void frames absorbed by first-hop switches",
		func() float64 { return float64(nw.TotalVoidsDropped()) })
	reg.GaugeFunc("silo_netsim_goodput_bytes",
		"non-void bytes delivered to hosts",
		func() float64 { return float64(nw.SentDataBytes()) })
	c := &nw.Sim.rtc
	for _, g := range []struct {
		name, help string
		v          *int64
	}{
		{"silo_runtime_events_total", "events executed across all engine loops", &c.Events},
		{"silo_runtime_wheel_hwm", "worst timestamp-wheel population of any single engine", &c.WheelHWM},
		{"silo_runtime_overflow_heap_hwm", "worst overflow-heap depth of any single engine", &c.FarHWM},
		{"silo_runtime_event_freelist_hits_total", "event-node allocations served from the freelist", &c.EvHits},
		{"silo_runtime_event_freelist_misses_total", "event-node chunk carves (128 nodes each)", &c.EvMisses},
		{"silo_runtime_packet_arena_hits_total", "packet allocations served from the arena freelist", &c.PktHits},
		{"silo_runtime_packet_arena_misses_total", "packet-arena chunk carves (256 packets each)", &c.PktMisses},
		{"silo_runtime_packet_arena_in_use", "packets currently allocated from the arenas", &c.PktInUse},
		{"silo_runtime_packet_arena_hwm", "summed per-engine packet-arena high-water marks", &c.PktHWM},
	} {
		v := g.v
		reg.GaugeFunc(g.name, g.help, func() float64 { return float64(*v) })
	}
}

// AttachDelayAudit feeds every delivered data packet's NIC-to-NIC delay
// (delivery time minus the SentAt wire stamp) to a guarantee auditor,
// against the destination VM's tenant. tenantOf maps a VM id to its
// tenant id (ok=false skips the packet); it runs once per delivered
// packet, so it must not allocate — a range check or array lookup, not
// a map built per call.
//
// The auditor's per-tenant histogram and violation counters aggregate
// in place with zero allocation; per-packet hop records are the flight
// recorder's job (AttachFlightRecorder).
func (nw *Network) AttachDelayAudit(a *obs.GuaranteeAuditor, tenantOf func(vmID int) (tenantID int, ok bool)) {
	if a == nil {
		return
	}
	sim := nw.Sim
	sim.Subscribe(func(ev Event) {
		p := ev.P
		if id, ok := tenantOf(p.DstVM); ok {
			// Delivery time and endpoints ride along so a violation tap
			// can emit a fully-identified event.
			a.ObserveDelivery(id, p.DstVM, p.SrcVM, sim.Now(), ev.Arg)
		}
	}, EvDeliver)
}
