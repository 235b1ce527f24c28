// Package timeseries turns the point-in-time metrics Registry into a
// continuous signal: an epoch-windowed rollup that, driven by simulated
// time (the netsim clock — never the wall clock, so captures line up
// exactly with the scenario being simulated), snapshots every
// registered metric into one row per window of a fixed-capacity ring.
//
// Design rules, matching the obs core:
//
//  1. A window costs what it records. A capture writes one contiguous
//     row, one value per series, each read through a function resolved
//     when the series was discovered; it allocates nothing once every
//     metric has been seen (BenchmarkCapture and
//     TestCaptureZeroAllocSteadyState enforce this). A capture that
//     discovers mid-run registrations widens the rows once, with NaN in
//     the new columns for the windows they missed.
//  2. Bounded memory. capacity rows, oldest overwritten — a soak run
//     holds the most recent capacity windows, always.
//  3. One goroutine, as in package obs: Capture runs on the goroutine
//     that drives the simulation, and the readers (Frame, Snapshot)
//     run there too, usually once after the run.
//
// Scalar metrics (counters, gauges, gauge funcs) produce one series.
// Histograms expand into three derived series — cumulative count, sum
// and exact max — which is what the windowed consumers need (windowed
// rate = count delta, windowed mean = sum delta / count delta) without
// storing 64 buckets per window.
package timeseries

import (
	"math"

	"repro/internal/obs"
)

// Stat names the derived statistic a histogram-backed series carries.
const (
	StatValue = ""      // scalar metrics
	StatCount = "count" // histogram cumulative observation count
	StatSum   = "sum"   // histogram cumulative sum
	StatMax   = "max"   // histogram exact maximum so far
)

// Column describes one series: a column of the rollup's rows.
type Column struct {
	// Key uniquely identifies the series: the metric key, plus
	// "#count"/"#sum"/"#max" for histogram-derived statistics.
	Key    string
	Name   string
	Labels []string
	Kind   obs.Kind
	// Stat is StatValue for scalars, StatCount/StatSum/StatMax for
	// histogram-derived series.
	Stat string
}

// Rollup is the epoch-windowed capture engine.
type Rollup struct {
	reg      *obs.Registry
	capacity int

	seen int // registry entries already mapped to columns
	cols []Column
	// read[j] reads column j's metric, resolved at discovery.
	read []func() float64
	// rows holds capacity rows of len(cols) values, row-major; columns
	// added after a window was captured hold NaN in that window's row.
	rows  []float64
	times []int64 // capture timestamps (ns), one per row
	head  int     // next row to write
	n     int     // captures retained (<= capacity)
	total int64   // captures taken over the rollup's lifetime
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

// Captures returns the number of captures taken so far.
func (r *Rollup) Captures() int64 { return r.total }

// discover maps registrations made since the last capture onto new
// columns and widens every row to hold them, NaN-filled so windows
// captured before a mid-run registration render as gaps, not zeros.
func (r *Rollup) discover() {
	n := r.reg.NumMetrics()
	if n == r.seen {
		return
	}
	old := len(r.cols)
	for i := r.seen; i < n; i++ {
		m := r.reg.MetricAt(i)
		col := Column{Key: m.Key(), Name: m.Name(), Labels: m.Labels(), Kind: m.Kind()}
		if col.Kind != obs.KindHistogram {
			r.cols = append(r.cols, col)
			r.read = append(r.read, m.ScalarReader())
			continue
		}
		h := m.Hist()
		key := col.Key
		for _, s := range [...]struct {
			stat string
			read func() float64
		}{
			{StatCount, func() float64 { return float64(h.Count()) }},
			{StatSum, func() float64 { return float64(h.Sum()) }},
			{StatMax, func() float64 { return float64(h.Max()) }},
		} {
			col.Key, col.Stat = key+"#"+s.stat, s.stat
			r.cols = append(r.cols, col)
			r.read = append(r.read, s.read)
		}
	}
	r.seen = n

	width := len(r.cols)
	rows := make([]float64, r.capacity*width)
	nan := math.NaN()
	for slot := 0; slot < r.capacity; slot++ {
		row := rows[slot*width : (slot+1)*width]
		copy(row, r.rows[slot*old:(slot+1)*old])
		for j := old; j < width; j++ {
			row[j] = nan
		}
	}
	r.rows = rows
}

// Capture snapshots every registered metric into the next row at
// simulated time nowNs. Zero allocations once all metrics have been
// seen; a capture that discovers new registrations pays for widening
// the rows once.
func (r *Rollup) Capture(nowNs int64) {
	r.discover()
	r.times[r.head] = nowNs
	w := len(r.read)
	row := r.rows[r.head*w : (r.head+1)*w]
	for j, read := range r.read {
		row[j] = read()
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

// Frame is a chronological copy of the retained windows, row-major:
// row i (captured at TimesNs[i]) holds one value per column, NaN for a
// series not yet registered at that capture.
type Frame struct {
	TimesNs []int64
	Columns []Column
	// Rows holds len(TimesNs) rows of len(Columns) values.
	Rows []float64
}

// At returns column j's value in window i.
func (f *Frame) At(i, j int) float64 { return f.Rows[i*len(f.Columns)+j] }

// Frame copies the retained windows out, oldest first.
func (r *Rollup) Frame() Frame {
	w := len(r.cols)
	f := Frame{
		TimesNs: make([]int64, r.n),
		Columns: append(make([]Column, 0, w), r.cols...),
		Rows:    make([]float64, r.n*w),
	}
	// Oldest retained slot: head-n (mod capacity).
	start := r.head - r.n
	if start < 0 {
		start += r.capacity
	}
	for i := 0; i < r.n; i++ {
		slot := (start + i) % r.capacity
		f.TimesNs[i] = r.times[slot]
		copy(f.Rows[i*w:(i+1)*w], r.rows[slot*w:(slot+1)*w])
	}
	return f
}

// SeriesData is one series copied out in chronological order. Its JSON
// form is Column's fields followed by Values.
type SeriesData struct {
	Column
	// Values holds one sample per retained window, oldest first. NaN
	// marks windows before the series existed.
	Values []float64
}

// SeriesSnapshot is a chronological copy of the rollup.
type SeriesSnapshot struct {
	// TimesNs holds the capture timestamps, oldest first.
	TimesNs []int64
	Series  []SeriesData
}

// Snapshot copies the retained windows out in chronological order, one
// slice of values per series.
func (r *Rollup) Snapshot() SeriesSnapshot {
	f := r.Frame()
	out := SeriesSnapshot{TimesNs: f.TimesNs, Series: make([]SeriesData, len(f.Columns))}
	for j, c := range f.Columns {
		d := SeriesData{Column: c, Values: make([]float64, len(f.TimesNs))}
		for i := range d.Values {
			d.Values[i] = f.At(i, j)
		}
		out.Series[j] = d
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
