package placement

import (
	"errors"
	"math"
	"time"

	"repro/internal/obs"
)

// Metrics instruments the Silo placement manager. All observation
// methods are nil-safe; an uninstrumented manager pays one branch per
// Place/Remove.
//
// Metric names:
//
//	silo_place_admission_us              admission latency histogram
//	                                     (wall clock, accepted and
//	                                     rejected requests alike)
//	silo_place_accepted_total{slo=}      admitted requests, split by SLO
//	                                     class: "delay-bounded" (d > 0,
//	                                     the tenants the SLO engine
//	                                     tracks) vs "bulk" (bandwidth
//	                                     only)
//	silo_place_rejected_total{reason=}   rejections, reason "no-fit"
//	                                     (admission control found no
//	                                     placement) or "invalid" (bad
//	                                     spec, duplicate tenant)
//	silo_place_removed_total             tenants released
//
// EnableMetrics additionally registers pull-time headroom gauges (see
// there).
type Metrics struct {
	AdmissionUs     *obs.Histogram
	AcceptedBounded *obs.Counter
	AcceptedBulk    *obs.Counter
	RejectedNoFit   *obs.Counter
	RejectedOther   *obs.Counter
	Removed         *obs.Counter
	RecoveryUs      *obs.Histogram
	Relocated       *obs.Counter
	Degraded        *obs.Counter
	Evicted         *obs.Counter
}

// NewMetrics registers the placement metrics. A nil registry returns
// nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		AdmissionUs: reg.Histogram("silo_place_admission_us",
			"admission-control latency per request (µs, wall clock)"),
		AcceptedBounded: reg.Counter("silo_place_accepted_total",
			"tenant requests admitted", "slo", "delay-bounded"),
		AcceptedBulk: reg.Counter("silo_place_accepted_total",
			"tenant requests admitted", "slo", "bulk"),
		RejectedNoFit: reg.Counter("silo_place_rejected_total",
			"tenant requests rejected", "reason", "no-fit"),
		RejectedOther: reg.Counter("silo_place_rejected_total",
			"tenant requests rejected", "reason", "invalid"),
		Removed: reg.Counter("silo_place_removed_total",
			"tenants released"),
		RecoveryUs: reg.Histogram("silo_place_recovery_us",
			"failure-recovery latency per Recover call (µs, wall clock)"),
		Relocated: reg.Counter("silo_place_recovered_total",
			"tenants recovered after a failure", "verdict", "relocated"),
		Degraded: reg.Counter("silo_place_recovered_total",
			"tenants recovered after a failure", "verdict", "degraded"),
		Evicted: reg.Counter("silo_place_recovered_total",
			"tenants recovered after a failure", "verdict", "evicted"),
	}
}

// notePlace records one admission request's outcome and latency.
// delayBounded classifies the request's SLO class (d > 0).
func (mx *Metrics) notePlace(elapsed time.Duration, err error, delayBounded bool) {
	if mx == nil {
		return
	}
	mx.AdmissionUs.Observe(elapsed.Microseconds())
	switch {
	case err == nil && delayBounded:
		mx.AcceptedBounded.Inc()
	case err == nil:
		mx.AcceptedBulk.Inc()
	case errors.Is(err, ErrRejected):
		mx.RejectedNoFit.Inc()
	default:
		mx.RejectedOther.Inc()
	}
}

func (mx *Metrics) noteRemove() {
	if mx == nil {
		return
	}
	mx.Removed.Inc()
}

// noteRecover records one Recover call's latency and verdict counts.
func (mx *Metrics) noteRecover(elapsed time.Duration, r *RecoveryReport) {
	if mx == nil {
		return
	}
	mx.RecoveryUs.Observe(elapsed.Microseconds())
	mx.Relocated.Add(int64(r.Relocated))
	mx.Degraded.Add(int64(r.Degraded))
	mx.Evicted.Add(int64(r.Evicted))
}

// EnableMetrics attaches telemetry to the manager and registers the
// port-headroom gauges. With ~10^6 directed ports at datacenter scale
// a literal per-port gauge family is unexportable, so headroom is
// summarized per port family as pull-time minima: the family's
// tightest remaining slack, in seconds of queue capacity
// (capacity − current queue bound).
//
//	silo_place_headroom_seconds{family="nic-up"|"tor-down"|"all"}
//	silo_place_min_headroom_port   directed-port ID of the overall
//	                               minimum (the fabric's bottleneck)
//
// The gauge functions read manager state without synchronization;
// exporting while another goroutine admits tenants yields advisory
// (possibly torn) values. The bundled CLIs export after their
// admission loops finish, where the values are exact.
//
// A nil registry detaches instrumentation and returns nil.
func (m *Manager) EnableMetrics(reg *obs.Registry) *Metrics {
	m.mx = NewMetrics(reg)
	if reg == nil {
		return nil
	}
	minOver := func(lo, hi int) float64 {
		minH := math.Inf(1)
		for pid := lo; pid < hi; pid++ {
			if h := m.portCap[pid] - m.QueueBound(pid); h < minH {
				minH = h
			}
		}
		if math.IsInf(minH, 1) {
			return 0
		}
		return minH
	}
	reg.GaugeFunc("silo_place_headroom_seconds",
		"tightest remaining queue-capacity slack in the port family (s)",
		func() float64 { return minOver(m.upLo, m.upHi) },
		"family", "nic-up")
	reg.GaugeFunc("silo_place_headroom_seconds",
		"tightest remaining queue-capacity slack in the port family (s)",
		func() float64 { return minOver(m.downLo, m.downHi) },
		"family", "tor-down")
	reg.GaugeFunc("silo_place_headroom_seconds",
		"tightest remaining queue-capacity slack in the port family (s)",
		func() float64 { return minOver(0, len(m.portCap)) },
		"family", "all")
	reg.GaugeFunc("silo_place_min_headroom_port",
		"directed-port ID with the least remaining slack",
		func() float64 {
			minH, minP := math.Inf(1), -1
			for pid := range m.portCap {
				if h := m.portCap[pid] - m.QueueBound(pid); h < minH {
					minH, minP = h, pid
				}
			}
			return float64(minP)
		})
	reg.GaugeFunc("silo_place_accepted",
		"currently admitted request count",
		func() float64 { return float64(m.Accepted()) })
	reg.GaugeFunc("silo_place_rejected",
		"cumulative rejected request count",
		func() float64 { return float64(m.Rejected()) })
	return m.mx
}
