package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// The reflective Chrome-trace writer and the map-of-slices span
// assembler this package shipped before the streaming encoder and the
// sorted assembly pass replaced them, kept verbatim as the reference
// the property tests compare bytes and spans against.

// oracleChromeTraceFile is the on-disk Chrome trace_event envelope.
type oracleChromeTraceFile struct {
	TraceEvents     []oracleChromeEvent        `json:"traceEvents"`
	DisplayTimeUnit string                     `json:"displayTimeUnit"`
	OtherData       map[string]json.RawMessage `json:"otherData,omitempty"`
}

// oracleChromeEvent is one trace_event record; ts and dur are
// microseconds (fractional — ns precision survives the float).
type oracleChromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int64                  `json:"pid"`
	Tid  uint64                 `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

func usFloat(ns int64) float64 { return float64(ns) / 1e3 }

func oracleWriteChromeTrace(w io.Writer, meta *RunMeta, ports []PortMeta, spans []FlightSpan) error {
	var evs []oracleChromeEvent
	for i := range spans {
		s := &spans[i]
		base := map[string]interface{}{
			"pkt": s.Pkt, "src_vm": s.SrcVM, "dst_vm": s.DstVM, "bytes": s.Bytes,
		}
		pid := int64(s.TenantID)
		if s.EnqueueNs >= 0 && s.PacingNs > 0 {
			args := map[string]interface{}{
				"pkt": s.Pkt, "gate": GateName(s.Gate),
				"token_wait_ns": s.TokenWaitNs, "batch_wait_ns": s.BatchWaitNs,
			}
			evs = append(evs, oracleChromeEvent{
				Name: "pacing", Cat: "pacer", Ph: "X",
				Ts: usFloat(s.EnqueueNs), Dur: usFloat(s.PacingNs),
				Pid: pid, Tid: s.Pkt, Args: args,
			})
		}
		for _, h := range s.Hops {
			port := PortName(ports, h.Port)
			if h.QueueNs > 0 {
				evs = append(evs, oracleChromeEvent{
					Name: "queue " + port, Cat: "net", Ph: "X",
					Ts: usFloat(h.ArriveNs), Dur: usFloat(h.QueueNs),
					Pid: pid, Tid: s.Pkt,
					Args: map[string]interface{}{"pkt": s.Pkt, "occupied_bytes": h.OccupiedBytes},
				})
			}
			if h.TxStartNs >= 0 {
				evs = append(evs, oracleChromeEvent{
					Name: "ser " + port, Cat: "net", Ph: "X",
					Ts: usFloat(h.TxStartNs), Dur: usFloat(h.SerNs),
					Pid: pid, Tid: s.Pkt, Args: base,
				})
				if h.PropNs > 0 {
					evs = append(evs, oracleChromeEvent{
						Name: "prop " + port, Cat: "net", Ph: "X",
						Ts: usFloat(h.TxStartNs + h.SerNs), Dur: usFloat(h.PropNs),
						Pid: pid, Tid: s.Pkt,
					})
				}
			}
		}
	}
	payload, err := json.Marshal(siloTraceData{Meta: meta, Ports: ports, Spans: spans})
	if err != nil {
		return err
	}
	out := oracleChromeTraceFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ns",
		OtherData:       map[string]json.RawMessage{"silo": payload},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// oracleAssembleFlight groups events by packet ID and builds spans.
func oracleAssembleFlight(events []FlightEvent, ports []PortMeta) []FlightSpan {
	byPkt := make(map[uint64][]FlightEvent)
	for _, ev := range events {
		byPkt[ev.Pkt] = append(byPkt[ev.Pkt], ev)
	}
	spans := make([]FlightSpan, 0, len(byPkt))
	for pkt, evs := range byPkt {
		spans = append(spans, oracleAssembleOne(pkt, evs, ports))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Pkt < spans[j].Pkt })
	return spans
}

// oracleAssembleOne builds one span from a packet's events (in emission
// order, as the ring preserves it).
func oracleAssembleOne(pkt uint64, evs []FlightEvent, ports []PortMeta) FlightSpan {
	s := FlightSpan{Pkt: pkt, EnqueueNs: -1, AdmitNs: -1, WireNs: -1, DeliverNs: -1}
	var measuredDelay int64 = -1
	paired := true
	for _, ev := range evs {
		switch ev.Kind {
		case FlightVMEnqueue:
			s.EnqueueNs = ev.T
			s.SrcVM = ev.Port
			s.Bytes = ev.Arg
		case FlightTokenAdmit:
			s.AdmitNs = ev.T
			s.Gate = ev.Gate
		case FlightPortEnqueue:
			s.Hops = append(s.Hops, FlightHop{
				Port: ev.Port, ArriveNs: ev.T, TxStartNs: -1, OccupiedBytes: ev.Arg,
			})
		case FlightPortTx:
			h := oracleLastOpenHop(s.Hops, ev.Port)
			if h == nil {
				paired = false // arrival was overwritten in the ring
				continue
			}
			h.TxStartNs = ev.T
			h.SerNs = ev.Arg
			h.QueueNs = ev.T - h.ArriveNs
			if int(ev.Port) < len(ports) {
				h.PropNs = ports[ev.Port].PropNs
			}
		case FlightDeliver:
			s.DeliverNs = ev.T
			s.DstVM = ev.Port
			measuredDelay = ev.Arg
		}
	}
	for i := range s.Hops {
		h := &s.Hops[i]
		if h.TxStartNs < 0 {
			paired = false // dropped at this port, or tx not yet recorded
			continue
		}
		s.QueueNs += h.QueueNs
		s.SerNs += h.SerNs
		s.PropNs += h.PropNs
		if h.QueueNs >= s.WorstQueueNs {
			s.WorstQueueNs = h.QueueNs
			s.WorstPort = h.Port
		}
	}
	if len(s.Hops) > 0 {
		s.WireNs = s.Hops[0].ArriveNs
		// Unpaced packets never pass the VM-enqueue event that carries
		// the wire size; invert the first hop's serialization instead
		// (exact up to the simulator's own ns rounding).
		if h := &s.Hops[0]; s.Bytes == 0 && h.SerNs > 0 &&
			int(h.Port) < len(ports) && ports[h.Port].RateBps > 0 {
			s.Bytes = int64(math.Round(float64(h.SerNs) * ports[h.Port].RateBps / 1e9))
		}
	}
	if s.WireNs >= 0 && s.DeliverNs >= 0 {
		s.TotalNs = s.DeliverNs - s.WireNs
	}
	// Complete iff delivered, every hop paired, and the first hop
	// really is the source NIC: the measured delay carried by the
	// delivery event must equal deliver - firstArrive, which fails
	// whenever the ring overwrote leading hops.
	s.Complete = paired && len(s.Hops) > 0 && s.DeliverNs >= 0 &&
		measuredDelay >= 0 && s.TotalNs == measuredDelay
	if s.EnqueueNs >= 0 && s.WireNs >= 0 {
		s.PacingNs = s.WireNs - s.EnqueueNs
		if s.AdmitNs >= 0 {
			s.TokenWaitNs = s.AdmitNs - s.EnqueueNs
			s.BatchWaitNs = s.WireNs - s.AdmitNs
		}
	}
	return s
}

// oracleLastOpenHop returns the most recent hop at port still awaiting its
// transmit event.
func oracleLastOpenHop(hops []FlightHop, port int32) *FlightHop {
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].Port == port && hops[i].TxStartNs < 0 {
			return &hops[i]
		}
	}
	return nil
}

// oracleEvents is FlightRecorder.Events as it was: one append per
// retained event.
func oracleEvents(r *FlightRecorder) []FlightEvent {
	var out []FlightEvent
	for j := r.pos - min(r.pos, r.mask+1); j < r.pos; j++ {
		out = append(out, r.buf[j&r.mask])
	}
	return out
}
