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
}

// AttachDelayAudit wires every host's delivery path into a guarantee
// auditor: each delivered data packet's NIC-to-NIC delay (delivery time
// minus the SentAt wire stamp) is recorded against the destination
// VM's tenant. tenantOf maps a VM id to its tenant id (ok=false skips
// the packet); it runs once per delivered packet, so it must not
// allocate — a range check or array lookup, not a map built per call.
//
// The auditor's per-tenant histogram and violation counters aggregate
// in place with zero allocation; per-packet hop records are the flight
// recorder's job (AttachFlightRecorder).
//
// Existing OnDeliver hooks are preserved and run first.
func (nw *Network) AttachDelayAudit(a *obs.GuaranteeAuditor, tenantOf func(vmID int) (tenantID int, ok bool)) {
	if a == nil {
		return
	}
	for _, h := range nw.Hosts {
		h := h
		prev := h.OnDeliver
		h.OnDeliver = func(p *Packet, delayNs int64) {
			if prev != nil {
				prev(p, delayNs)
			}
			if id, ok := tenantOf(p.DstVM); ok {
				// Delivery time and endpoints ride along so a violation
				// tap can emit a fully-identified event.
				a.ObserveDelivery(id, p.DstVM, p.SrcVM, h.Sim().Now(), delayNs)
			}
		}
	}
}
