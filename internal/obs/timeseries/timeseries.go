// Package timeseries turns the point-in-time metrics Registry into a
// continuous signal: an epoch-windowed rollup that, driven by simulated
// time (the netsim clock — never the wall clock, so captures line up
// exactly with the scenario being simulated), snapshots every
// registered metric into a fixed-capacity per-metric ring buffer.
//
// Design rules, matching the obs core:
//
//  1. Zero steady-state allocations. Rings are preallocated at series
//     registration; once every metric has been seen, Capture touches
//     only existing storage (BenchmarkCapture and
//     TestCaptureZeroAllocSteadyState enforce this). Metrics registered
//     mid-run allocate their ring once, on the first capture that sees
//     them ("warmup"), and carry NaN for the windows they missed.
//  2. Bounded memory. capacity windows per series, oldest overwritten —
//     a soak run holds the most recent capacity windows, always.
//  3. Reader/writer safety. Capture runs on the simulation goroutine;
//     the dashboard's /api/series handler reads from an HTTP goroutine.
//     One mutex serializes them; readers copy out, so render time never
//     blocks the simulation for longer than the copy.
//
// Scalar metrics (counters, gauges, gauge funcs) produce one series.
// Histograms expand into three derived series — cumulative count, sum
// and exact max — which is what the windowed consumers need (windowed
// rate = count delta, windowed mean = sum delta / count delta) without
// storing 64 buckets per window.
package timeseries

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// Stat names the derived statistic a histogram-backed series carries.
const (
	StatValue = ""      // scalar metrics
	StatCount = "count" // histogram cumulative observation count
	StatSum   = "sum"   // histogram cumulative sum
	StatMax   = "max"   // histogram exact maximum so far
)

// series is one metric statistic's ring. vals is capacity long; slots
// not yet captured (a series registered mid-run) hold NaN. ref is the
// metric resolved when the series was discovered, so a capture reads
// it without going back through the registry's lock.
type series struct {
	ref  obs.MetricRef
	key  string
	stat string
	vals []float64
}

// Rollup is the epoch-windowed capture engine.
type Rollup struct {
	reg      *obs.Registry
	capacity int

	mu     sync.Mutex
	seen   int // registry entries already mapped to series
	series []*series
	times  []int64 // capture timestamps (ns), ring parallel to series slots
	head   int     // next slot to write
	n      int     // captures retained (<= capacity)
	total  int64   // captures taken over the rollup's lifetime
}

// NewRollup returns a rollup over reg retaining capacity windows
// (minimum 2). A nil registry yields a rollup that captures timestamps
// but no series — harmless, so callers need no conditional wiring.
func NewRollup(reg *obs.Registry, capacity int) *Rollup {
	if capacity < 2 {
		capacity = 2
	}
	return &Rollup{reg: reg, capacity: capacity, times: make([]int64, capacity)}
}

// Capacity returns the ring capacity in windows.
func (r *Rollup) Capacity() int { return r.capacity }

// Captures returns the number of captures taken so far.
func (r *Rollup) Captures() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// newSeries preallocates one ring, NaN-filled so windows missed before
// a mid-run registration render as gaps, not zeros.
func newSeries(m obs.MetricRef, key, stat string, capacity int) *series {
	s := &series{ref: m, key: key, stat: stat, vals: make([]float64, capacity)}
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
func (r *Rollup) Capture(nowNs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.reg.NumMetrics()
	for i := r.seen; i < n; i++ {
		m := r.reg.MetricAt(i)
		key := m.Key()
		if m.Kind() == obs.KindHistogram {
			r.series = append(r.series,
				newSeries(m, key+"#count", StatCount, r.capacity),
				newSeries(m, key+"#sum", StatSum, r.capacity),
				newSeries(m, key+"#max", StatMax, r.capacity))
		} else {
			r.series = append(r.series, newSeries(m, key, StatValue, r.capacity))
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

// SeriesData is one series copied out in chronological order.
type SeriesData struct {
	// Key uniquely identifies the series: the metric key, plus
	// "#count"/"#sum"/"#max" for histogram-derived statistics.
	Key    string
	Name   string
	Labels []string
	Kind   obs.Kind
	// Stat is StatValue for scalars, StatCount/StatSum/StatMax for
	// histogram-derived series.
	Stat string
	// Values holds one sample per retained window, oldest first. NaN
	// marks windows before the series existed.
	Values []float64
}

// SeriesSnapshot is a chronological copy of the rollup, safe to render
// while captures continue.
type SeriesSnapshot struct {
	// TimesNs holds the capture timestamps, oldest first.
	TimesNs []int64
	Series  []SeriesData
}

// Snapshot copies the retained windows out in chronological order.
func (r *Rollup) Snapshot() SeriesSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
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
		d := SeriesData{Key: s.key, Name: s.ref.Name(), Labels: s.ref.Labels(), Kind: s.ref.Kind(), Stat: s.stat,
			Values: make([]float64, r.n)}
		for i := 0; i < r.n; i++ {
			d.Values[i] = s.vals[(start+i)%r.capacity]
		}
		out.Series[si] = d
	}
	return out
}

// WindowDeltas converts one cumulative series (a counter, or a
// histogram count/sum) into per-window increments: out[i] = v[i] -
// v[i-1]. NaN samples (windows before the series existed) stay NaN;
// the first real sample is measured against zero, the metric's value
// at registration.
func WindowDeltas(values []float64) []float64 {
	out := make([]float64, len(values))
	prev := 0.0
	for i, v := range values {
		if math.IsNaN(v) {
			out[i] = math.NaN()
			prev = 0
			continue
		}
		out[i] = v - prev
		prev = v
	}
	return out
}

// Get returns the snapshot series with the given key, if present.
func (s SeriesSnapshot) Get(key string) (SeriesData, bool) {
	for _, d := range s.Series {
		if d.Key == key {
			return d, true
		}
	}
	return SeriesData{}, false
}
