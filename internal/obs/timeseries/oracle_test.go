package timeseries

import (
	"math"

	"repro/internal/obs"
)

// ringRollup is the rollup as it was before the row layout: one
// capacity-long ring per series, each capture writing one slot of every
// ring. It stays here as the oracle the row-major Rollup is held to
// (TestRollupMatchesRingOracleProperty).

// ringSeries is one metric statistic's ring. vals is capacity long; slots
// not yet captured (a series registered mid-run) hold NaN. ref is the
// metric resolved when the series was discovered, so a capture reads
// it without going back through the registry.
type ringSeries struct {
	ref  obs.MetricRef
	key  string
	stat string
	vals []float64
}

type ringRollup struct {
	reg      *obs.Registry
	capacity int

	seen   int // registry entries already mapped to series
	series []*ringSeries
	times  []int64 // capture timestamps (ns), ring parallel to series slots
	head   int     // next slot to write
	n      int     // captures retained (<= capacity)
	total  int64   // captures taken over the rollup's lifetime
}

func newRingRollup(reg *obs.Registry, capacity int) *ringRollup {
	if capacity < 2 {
		capacity = 2
	}
	return &ringRollup{reg: reg, capacity: capacity, times: make([]int64, capacity)}
}

// Captures returns the number of captures taken so far.
func (r *ringRollup) Captures() int64 {
	return r.total
}

// newRingSeries preallocates one ring, NaN-filled so windows missed before
// a mid-run registration render as gaps, not zeros.
func newRingSeries(m obs.MetricRef, key, stat string, capacity int) *ringSeries {
	s := &ringSeries{ref: m, key: key, stat: stat, vals: make([]float64, capacity)}
	nan := math.NaN()
	for i := range s.vals {
		s.vals[i] = nan
	}
	return s
}

// Capture snapshots every registered metric into the rings at
// simulated time nowNs. Zero allocations once all metrics have been
// seen; a capture that discovers new registrations pays their ring
// allocation once.
func (r *ringRollup) Capture(nowNs int64) {
	n := r.reg.NumMetrics()
	for i := r.seen; i < n; i++ {
		m := r.reg.MetricAt(i)
		key := m.Key()
		if m.Kind() == obs.KindHistogram {
			r.series = append(r.series,
				newRingSeries(m, key+"#count", StatCount, r.capacity),
				newRingSeries(m, key+"#sum", StatSum, r.capacity),
				newRingSeries(m, key+"#max", StatMax, r.capacity))
		} else {
			r.series = append(r.series, newRingSeries(m, key, StatValue, r.capacity))
		}
	}
	r.seen = n

	slot := r.head
	r.times[slot] = nowNs
	for si := 0; si < len(r.series); {
		s := r.series[si]
		if s.ref.Kind() == obs.KindHistogram { // its count, sum and max series are adjacent
			h := s.ref.Hist()
			s.vals[slot] = float64(h.Count())
			r.series[si+1].vals[slot] = float64(h.Sum())
			r.series[si+2].vals[slot] = float64(h.Max())
			si += 3
		} else {
			s.vals[slot] = s.ref.ScalarValue()
			si++
		}
	}
	r.head++
	if r.head == r.capacity {
		r.head = 0
	}
	if r.n < r.capacity {
		r.n++
	}
	r.total++
}

// Snapshot copies the retained windows out in chronological order.
func (r *ringRollup) Snapshot() SeriesSnapshot {
	out := SeriesSnapshot{
		TimesNs: make([]int64, r.n),
		Series:  make([]SeriesData, len(r.series)),
	}
	// Oldest retained slot: head-n (mod capacity).
	start := r.head - r.n
	if start < 0 {
		start += r.capacity
	}
	for i := 0; i < r.n; i++ {
		out.TimesNs[i] = r.times[(start+i)%r.capacity]
	}
	for si, s := range r.series {
		d := SeriesData{Column: Column{Key: s.key, Name: s.ref.Name(), Labels: s.ref.Labels(), Kind: s.ref.Kind(), Stat: s.stat},
			Values: make([]float64, r.n)}
		for i := 0; i < r.n; i++ {
			d.Values[i] = s.vals[(start+i)%r.capacity]
		}
		out.Series[si] = d
	}
	return out
}
