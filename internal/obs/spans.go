package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Span reassembly: stitch flight-recorder events per packet ID into
// FlightSpans and attribute every delivered packet's NIC-to-NIC delay
// to its components:
//
//	queueing (per hop) + serialization (per hop) + propagation = total
//
// The identity is exact (0 ns error) for complete spans, because each
// hop's serialization time is recorded at transmit (the same rounded
// value the simulator charges) and the component sum telescopes into
// delivery-time minus first-wire-time. Pacing delay (VM enqueue to
// wire) is attributed separately — it happens before the SentAt wire
// stamp the {B, S, d} guarantee is measured from, split into token
// wait (enqueue to committed release) and batch wait (release to
// actual wire slot).

// PortMeta describes one directed port for reassembly and rendering.
type PortMeta struct {
	Name    string  `json:"name"`
	RateBps float64 `json:"rate_bps"`
	PropNs  int64   `json:"prop_ns"`
}

// FlightHop is one port traversal within a span.
type FlightHop struct {
	// Port is the topology directed-port ID.
	Port int32 `json:"port"`
	// ArriveNs and TxStartNs bracket the queueing delay.
	ArriveNs  int64 `json:"arrive_ns"`
	TxStartNs int64 `json:"tx_start_ns"`
	// SerNs is the serialization time charged by the port.
	SerNs int64 `json:"ser_ns"`
	// PropNs is the link propagation delay after serialization.
	PropNs int64 `json:"prop_ns"`
	// QueueNs = TxStartNs - ArriveNs.
	QueueNs int64 `json:"queue_ns"`
	// OccupiedBytes is the queue occupancy found on arrival.
	OccupiedBytes int64 `json:"occupied_bytes"`
}

// FlightSpan is one packet's reassembled lifecycle with its latency
// attribution.
type FlightSpan struct {
	Pkt   uint64 `json:"pkt"`
	SrcVM int32  `json:"src_vm"`
	DstVM int32  `json:"dst_vm"`
	Bytes int64  `json:"bytes"`

	// EnqueueNs is the VM pacer enqueue time (-1: unpaced or unknown).
	EnqueueNs int64 `json:"enqueue_ns"`
	// AdmitNs is the token-bucket release stamp (-1 if unknown).
	AdmitNs int64 `json:"admit_ns"`
	// Gate is the bucket that determined AdmitNs (pacer Gate*).
	Gate uint8 `json:"gate"`
	// WireNs is the source NIC arrival (the SentAt stamp); DeliverNs
	// the destination host delivery.
	WireNs    int64 `json:"wire_ns"`
	DeliverNs int64 `json:"deliver_ns"`

	Hops []FlightHop `json:"hops,omitempty"`

	// Attribution components.
	TokenWaitNs int64 `json:"token_wait_ns"`
	BatchWaitNs int64 `json:"batch_wait_ns"`
	PacingNs    int64 `json:"pacing_ns"`
	QueueNs     int64 `json:"queue_ns"`
	SerNs       int64 `json:"ser_ns"`
	PropNs      int64 `json:"prop_ns"`
	// TotalNs is the measured NIC-to-NIC delay (DeliverNs - WireNs).
	TotalNs int64 `json:"total_ns"`

	// WorstPort is the hop with the largest queueing share.
	WorstPort    int32 `json:"worst_port"`
	WorstQueueNs int64 `json:"worst_queue_ns"`

	// Complete reports a fully reassembled delivered packet: first-hop
	// arrival through delivery with every hop paired. Attribution is
	// only meaningful on complete spans.
	Complete bool `json:"complete"`

	// TenantID and BoundNs are filled by AnnotateSpans (0 = no bound).
	TenantID int32 `json:"tenant_id"`
	BoundNs  int64 `json:"bound_ns"`
}

// AttributionErrorNs returns TotalNs minus the component sum; 0 for a
// correctly reassembled complete span.
func (s *FlightSpan) AttributionErrorNs() int64 {
	return s.TotalNs - (s.QueueNs + s.SerNs + s.PropNs)
}

// Violated reports whether the span exceeded its annotated delay bound.
func (s *FlightSpan) Violated() bool {
	return s.Complete && s.BoundNs > 0 && s.TotalNs > s.BoundNs
}

// AssembleFlight groups events by packet ID and builds spans. ports
// resolves propagation delays (indexed by port ID; out-of-range ports
// get zero propagation). Spans are returned sorted by packet ID.
func AssembleFlight(events []FlightEvent, ports []PortMeta) []FlightSpan {
	order := orderByPacket(events)
	nSpans, nHops := 0, 0
	for k, i := range order {
		if k == 0 || events[i].Pkt != events[order[k-1]].Pkt {
			nSpans++
		}
		if events[i].Kind == FlightPortEnqueue {
			nHops++
		}
	}
	spans := make([]FlightSpan, 0, nSpans)
	// Every span's Hops is carved from this one slab, which is sized so
	// that appending a hop never moves it.
	hops := make([]FlightHop, 0, nHops)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && events[order[hi]].Pkt == events[order[lo]].Pkt {
			hi++
		}
		var s FlightSpan
		s, hops = assembleOne(events, order[lo:hi], ports, hops)
		spans = append(spans, s)
		lo = hi
	}
	return spans
}

// orderByPacket returns the indices of events ordered by packet ID,
// each packet's events staying in the order given (emission order, as
// the per-shard rings preserve it): a byte-wise LSD radix sort that
// skips the digits all IDs agree on.
func orderByPacket(events []FlightEvent) []int32 {
	order, next := make([]int32, len(events)), make([]int32, len(events))
	var differ uint64
	for i := range events {
		order[i] = int32(i)
		differ |= events[i].Pkt ^ events[0].Pkt
	}
	for shift := 0; shift < 64; shift += 8 {
		if (differ>>shift)&0xff == 0 {
			continue
		}
		var start [257]int // start[d]: where the IDs with digit d go next
		for i := range events {
			start[(events[i].Pkt>>shift)&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, i := range order {
			d := (events[i].Pkt >> shift) & 0xff
			next[start[d]] = i
			start[d]++
		}
		order, next = next, order
	}
	return order
}

// assembleOne builds one span from the events of one packet, which idx
// lists in emission order. The span's hops are appended to slab, whose
// capacity the caller sized for all of them; the grown slab is
// returned.
func assembleOne(events []FlightEvent, idx []int32, ports []PortMeta, slab []FlightHop) (FlightSpan, []FlightHop) {
	s := FlightSpan{Pkt: events[idx[0]].Pkt, EnqueueNs: -1, AdmitNs: -1, WireNs: -1, DeliverNs: -1}
	var measuredDelay int64 = -1
	paired := true
	first := len(slab)
	for _, i := range idx {
		ev := &events[i]
		switch ev.Kind {
		case FlightVMEnqueue:
			s.EnqueueNs = ev.T
			s.SrcVM = ev.Port
			s.Bytes = ev.Arg
		case FlightTokenAdmit:
			s.AdmitNs = ev.T
			s.Gate = ev.Gate
		case FlightPortEnqueue:
			slab = append(slab, FlightHop{
				Port: ev.Port, ArriveNs: ev.T, TxStartNs: -1, OccupiedBytes: ev.Arg,
			})
		case FlightPortTx:
			h := lastOpenHop(slab[first:], ev.Port)
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
	if len(slab) > first {
		// Capacity-limited, so a caller appending to one span's hops
		// cannot write into the next span's.
		s.Hops = slab[first:len(slab):len(slab)]
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
	return s, slab
}

// lastOpenHop returns the most recent hop at port still awaiting its
// transmit event.
func lastOpenHop(hops []FlightHop, port int32) *FlightHop {
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].Port == port && hops[i].TxStartNs < 0 {
			return &hops[i]
		}
	}
	return nil
}

// AnnotateSpans cross-references spans against the guarantee auditor:
// each span's destination VM is mapped to its tenant and the tenant's
// admitted delay bound d is stamped onto the span, so every
// d-violation carries a named culprit port (the hop with the largest
// queueing share). Returns the violating spans.
func AnnotateSpans(spans []FlightSpan, a *GuaranteeAuditor, tenantOf func(vmID int) (int, bool)) []*FlightSpan {
	if a == nil || tenantOf == nil {
		return nil
	}
	var violations []*FlightSpan
	for i := range spans {
		s := &spans[i]
		id, ok := tenantOf(int(s.DstVM))
		if !ok {
			continue
		}
		t, ok := a.Tenant(id)
		if !ok {
			continue
		}
		s.TenantID = int32(id)
		s.BoundNs = t.DelayBoundNs
		if s.Violated() {
			violations = append(violations, s)
		}
	}
	return violations
}

// PortName resolves a port ID against the meta table, falling back to
// "port<id>".
func PortName(ports []PortMeta, id int32) string {
	if int(id) >= 0 && int(id) < len(ports) && ports[id].Name != "" {
		return ports[id].Name
	}
	return fmt.Sprintf("port%d", id)
}

// FlightPortStat aggregates queueing per port across spans.
type FlightPortStat struct {
	Port                   int32
	Packets                int64
	QueueSumNs, QueueMaxNs int64
	WorstOfSpans           int64 // spans where this port was the worst hop
	OccupiedMaxBytes       int64
	SerSumNs, PropSumNs    int64
}

// AggregatePorts builds per-port queueing statistics from complete
// spans, sorted by total queueing contribution (descending).
func AggregatePorts(spans []FlightSpan) []FlightPortStat {
	byPort := map[int32]*FlightPortStat{}
	for i := range spans {
		s := &spans[i]
		if !s.Complete {
			continue
		}
		for _, h := range s.Hops {
			st := byPort[h.Port]
			if st == nil {
				st = &FlightPortStat{Port: h.Port}
				byPort[h.Port] = st
			}
			st.Packets++
			st.QueueSumNs += h.QueueNs
			st.SerSumNs += h.SerNs
			st.PropSumNs += h.PropNs
			if h.QueueNs > st.QueueMaxNs {
				st.QueueMaxNs = h.QueueNs
			}
			if h.OccupiedBytes > st.OccupiedMaxBytes {
				st.OccupiedMaxBytes = h.OccupiedBytes
			}
		}
		if st := byPort[s.WorstPort]; st != nil {
			st.WorstOfSpans++
		}
	}
	out := make([]FlightPortStat, 0, len(byPort))
	for _, st := range byPort {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].QueueSumNs != out[j].QueueSumNs {
			return out[i].QueueSumNs > out[j].QueueSumNs
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// CompleteSpans filters to complete spans.
func CompleteSpans(spans []FlightSpan) []FlightSpan {
	out := make([]FlightSpan, 0, len(spans))
	for _, s := range spans {
		if s.Complete {
			out = append(out, s)
		}
	}
	return out
}

// SlowestSpans returns up to k complete spans by descending total
// delay.
func SlowestSpans(spans []FlightSpan, k int) []FlightSpan {
	c := CompleteSpans(spans)
	sort.Slice(c, func(i, j int) bool {
		if c[i].TotalNs != c[j].TotalNs {
			return c[i].TotalNs > c[j].TotalNs
		}
		return c[i].Pkt < c[j].Pkt
	})
	if len(c) > k {
		c = c[:k]
	}
	return c
}

// RenderSpan formats one span's hop-by-hop attribution for drill-down.
func RenderSpan(s *FlightSpan, ports []PortMeta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pkt %d  vm%d -> vm%d  %dB  total=%.2fµs", s.Pkt, s.SrcVM, s.DstVM, s.Bytes, float64(s.TotalNs)/1e3)
	if s.BoundNs > 0 {
		fmt.Fprintf(&b, "  bound=%.2fµs", float64(s.BoundNs)/1e3)
		if s.Violated() {
			b.WriteString("  VIOLATED")
		}
	}
	b.WriteByte('\n')
	if s.EnqueueNs >= 0 {
		fmt.Fprintf(&b, "  pacing   %10.2fµs  (token wait %.2fµs by %s, batch wait %.2fµs)\n",
			float64(s.PacingNs)/1e3, float64(s.TokenWaitNs)/1e3, GateName(s.Gate), float64(s.BatchWaitNs)/1e3)
	}
	for _, h := range s.Hops {
		fmt.Fprintf(&b, "  %-16s queue %8.2fµs  ser %7.2fµs  prop %6.2fµs  (found %dB)\n",
			PortName(ports, h.Port), float64(h.QueueNs)/1e3, float64(h.SerNs)/1e3, float64(h.PropNs)/1e3, h.OccupiedBytes)
	}
	fmt.Fprintf(&b, "  = queue %.2fµs + ser %.2fµs + prop %.2fµs = %.2fµs (attribution error %dns)\n",
		float64(s.QueueNs)/1e3, float64(s.SerNs)/1e3, float64(s.PropNs)/1e3,
		float64(s.QueueNs+s.SerNs+s.PropNs)/1e3, s.AttributionErrorNs())
	return b.String()
}

// GateName names a pacer gate bucket (mirrors the pacer's Gate*
// constants without importing the package).
func GateName(g uint8) string {
	switch g {
	case 1:
		return "dest-hose"
	case 2:
		return "avg{B,S}"
	case 3:
		return "cap-Bmax"
	default:
		return "none"
	}
}

// FlightSummary condenses a recording for the CLI one-shot printout.
type FlightSummary struct {
	Spans, Complete, Violations int
	// MaxAttributionErrNs is the worst |TotalNs - components| over
	// complete spans (0 when the identity holds exactly).
	MaxAttributionErrNs int64
	// Mean attribution over complete spans.
	MeanPacingNs, MeanQueueNs, MeanSerNs, MeanPropNs, MeanTotalNs float64
	MaxTotalNs                                                    int64
}

// SummarizeFlight computes the roll-up attribution over spans.
func SummarizeFlight(spans []FlightSpan) FlightSummary {
	var sum FlightSummary
	sum.Spans = len(spans)
	var pacing, queue, ser, prop, total float64
	for i := range spans {
		s := &spans[i]
		if !s.Complete {
			continue
		}
		sum.Complete++
		if s.Violated() {
			sum.Violations++
		}
		if e := s.AttributionErrorNs(); e > sum.MaxAttributionErrNs || -e > sum.MaxAttributionErrNs {
			if e < 0 {
				e = -e
			}
			sum.MaxAttributionErrNs = e
		}
		pacing += float64(s.PacingNs)
		queue += float64(s.QueueNs)
		ser += float64(s.SerNs)
		prop += float64(s.PropNs)
		total += float64(s.TotalNs)
		if s.TotalNs > sum.MaxTotalNs {
			sum.MaxTotalNs = s.TotalNs
		}
	}
	if sum.Complete > 0 {
		n := float64(sum.Complete)
		sum.MeanPacingNs = pacing / n
		sum.MeanQueueNs = queue / n
		sum.MeanSerNs = ser / n
		sum.MeanPropNs = prop / n
		sum.MeanTotalNs = total / n
	}
	return sum
}

// Render formats the summary as one paragraph.
func (f FlightSummary) Render() string {
	if f.Spans == 0 {
		return "flight trace: no spans recorded"
	}
	return fmt.Sprintf(
		"flight trace: %d spans (%d complete, %d violations, max attribution error %dns)\n"+
			"mean per delivered packet: pacing=%.2fµs queue=%.2fµs ser=%.2fµs prop=%.2fµs total=%.2fµs (max %.2fµs)",
		f.Spans, f.Complete, f.Violations, f.MaxAttributionErrNs,
		f.MeanPacingNs/1e3, f.MeanQueueNs/1e3, f.MeanSerNs/1e3, f.MeanPropNs/1e3,
		f.MeanTotalNs/1e3, float64(f.MaxTotalNs)/1e3)
}
