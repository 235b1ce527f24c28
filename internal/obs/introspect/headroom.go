package introspect

import (
	"repro/internal/netcal"
	"repro/internal/netsim"
	"repro/internal/placement"
)

// PortBounds are the network-calculus bounds re-derived for one
// directed port from the placement manager's admitted aggregate.
type PortBounds struct {
	Tenants       int     `json:"tenants"`
	QueueBoundSec float64 `json:"queue_bound_sec"`
	BacklogBytes  float64 `json:"backlog_bytes"`
	BusyPeriodSec float64 `json:"busy_period_sec"`
	CapacitySec   float64 `json:"capacity_sec"`
}

// boundsFromLoad evaluates the closed-form netcal bounds for an
// aggregate port load against a svcRate bytes/sec drain.
func boundsFromLoad(ld placement.PortLoad, svcRate, capSec float64) PortBounds {
	b := PortBounds{Tenants: ld.Tenants, CapacitySec: capSec}
	if ld.Tenants == 0 {
		return b
	}
	if ld.Peak > 0 {
		b.QueueBoundSec = netcal.QueueBoundTwoPiece(ld.Rate, ld.Burst, ld.Peak, ld.Seed, svcRate)
		b.BacklogBytes = netcal.BacklogTwoPiece(ld.Rate, ld.Burst, ld.Peak, ld.Seed, svcRate)
		b.BusyPeriodSec = netcal.BusyPeriodTwoPiece(ld.Rate, ld.Burst, ld.Peak, ld.Seed, svcRate)
	} else {
		b.QueueBoundSec = netcal.QueueBoundTB(ld.Rate, ld.Burst, svcRate)
		b.BacklogBytes = netcal.BacklogTB(ld.Rate, ld.Burst, svcRate)
		b.BusyPeriodSec = netcal.BusyPeriodTB(ld.Rate, ld.Burst, svcRate)
	}
	return b
}

// portWatch observes one simulated queue: backlog high-water marks
// come from the queue's own counters; busy periods are measured by
// bracketing arrivals and drain completions. The callbacks allocate
// nothing.
type portWatch struct {
	q       *netsim.Queue
	bounds  PortBounds
	bounded bool

	// Busy-period measurement. A period opens at the first arrival
	// into an idle port. When a serialization starts with nothing else
	// buffered, its completion time is the provisional drain point
	// (candEnd); the next arrival either lands before it (the period
	// continues, candEnd resets) or at/after it (the period closed at
	// candEnd).
	inBusy    bool
	busyStart int64
	candEnd   int64
	maxBusyNs int64
	busyCnt   int64
}

// onEnqueue observes an arrival; occupied is the occupancy before the
// packet is admitted (a serializing head's bytes stay in occupied
// until its completion, so occupied == 0 means a truly idle port).
func (w *portWatch) onEnqueue(now int64) {
	if w.inBusy {
		if w.candEnd != 0 && now >= w.candEnd {
			w.closeBusy(w.candEnd)
		} else {
			w.candEnd = 0
			return
		}
	}
	w.inBusy = true
	w.busyStart = now
	w.candEnd = 0
}

// onTransmit observes a serialization start: if the packet being
// serialized is the only buffered one, the port drains when it
// completes.
func (w *portWatch) onTransmit(now int64, p *netsim.Packet, serNs int64) {
	if w.q.Occupied() == int(p.Size) {
		w.candEnd = now + serNs
	} else {
		w.candEnd = 0
	}
}

func (w *portWatch) closeBusy(end int64) {
	if d := end - w.busyStart; d > w.maxBusyNs {
		w.maxBusyNs = d
	}
	w.busyCnt++
	w.inBusy = false
	w.candEnd = 0
}

// busyAt folds a still-open busy period into the tally as of time now,
// without mutating the watch (Snapshot must be repeatable).
func (w *portWatch) busyAt(now int64) (maxNs, count int64) {
	maxNs, count = w.maxBusyNs, w.busyCnt
	if !w.inBusy {
		return maxNs, count
	}
	end := now
	if w.candEnd != 0 && w.candEnd < now {
		end = w.candEnd
	}
	if d := end - w.busyStart; d > maxNs {
		maxNs = d
	}
	return maxNs, count + 1
}

// PortHeadroom is one port's introspection snapshot: observed backlog
// and busy-period extremes against the admitted bounds.
type PortHeadroom struct {
	Port int    `json:"port"`
	Name string `json:"name"`

	// Bounded reports whether admitted tenants put analytic bounds on
	// this port (BindPlacement ran and the placement crosses it).
	Bounded bool       `json:"bounded"`
	Bounds  PortBounds `json:"bounds"`

	HWMBytes    int64 `json:"hwm_bytes"`
	MaxBusyNs   int64 `json:"max_busy_ns"`
	BusyPeriods int64 `json:"busy_periods"`
	SentPkts    int64 `json:"sent_pkts"`

	// MarginBytes is the guarantee margin: the backlog bound minus the
	// observed high-water mark. ≤ 0 means observed occupancy reached
	// (or broke) the model's worst case. Only meaningful when Bounded.
	MarginBytes float64 `json:"margin_bytes"`
	// BusyMarginNs is the busy-period bound minus the longest observed
	// busy period (clamped at +Inf bounds; see MarginBytes).
	BusyMarginNs float64 `json:"busy_margin_ns"`
}
