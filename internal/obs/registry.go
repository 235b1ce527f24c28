package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a registered metric.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindGaugeFunc
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// entry is one registered metric.
type entry struct {
	name   string   // base metric name, e.g. "silo_pacer_delay_us"
	labels []string // alternating key, value
	help   string
	kind   Kind

	c  *Counter
	g  *Gauge
	gf func() float64
	h  *Histogram
}

func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds named metrics. A nil *Registry is the disabled
// telemetry layer: every constructor returns a nil metric and every
// exporter writes nothing, so call sites carry no conditional wiring.
//
// Registration (Counter/Gauge/Histogram/GaugeFunc) allocates;
// observations on the returned metrics never do. Registering the same
// (name, labels) twice returns the same metric.
type Registry struct {
	entries []*entry
	byKey   map[string]*entry
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// lookup returns the existing entry for (name, labels) or registers a
// new one built by mk.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, mk func(*entry)) *entry {
	k := metricKey(name, labels)
	if e, ok := r.byKey[k]; ok {
		return e
	}
	e := &entry{name: name, labels: append([]string(nil), labels...), help: help, kind: kind}
	mk(e)
	r.entries = append(r.entries, e)
	r.byKey[k] = e
	return e
}

// Counter registers (or fetches) a counter. labels are alternating
// key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, labels, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, labels, func(e *entry) { e.g = &Gauge{} }).g
}

// GaugeFunc registers a pull-time gauge: fn is evaluated at snapshot
// and export time, never on a hot path. The CLIs export once, after
// their run completes, on the goroutine that drove it.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindGaugeFunc, labels, func(e *entry) { e.gf = fn })
}

// Histogram registers (or fetches) a power-of-two-bucket histogram.
// By convention the unit is part of the name (…_us, …_bytes).
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, labels, func(e *entry) { e.h = &Histogram{} }).h
}

// HistValue is a histogram's state in a snapshot (non-cumulative
// buckets).
type HistValue struct {
	Count, Sum, Min, Max int64
	Buckets              [histBuckets]int64
}

// SnapEntry is one metric's value in a snapshot.
type SnapEntry struct {
	Name   string
	Labels []string
	Help   string
	Kind   Kind
	Value  float64    // counter, gauge, gauge-func
	Hist   *HistValue // histogram only
}

// Snapshot is a point-in-time copy of every registered metric, in
// registration order.
type Snapshot struct {
	Entries []SnapEntry
}

// Snapshot captures all metrics. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	out := Snapshot{Entries: make([]SnapEntry, 0, len(r.entries))}
	for _, e := range r.entries {
		se := SnapEntry{Name: e.name, Labels: e.labels, Help: e.help, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			se.Value = float64(e.c.Value())
		case KindGauge:
			se.Value = float64(e.g.Value())
		case KindGaugeFunc:
			se.Value = e.gf()
		case KindHistogram:
			se.Hist = &HistValue{
				Count:   e.h.Count(),
				Sum:     e.h.Sum(),
				Min:     e.h.Min(),
				Max:     e.h.Max(),
				Buckets: e.h.Buckets(),
			}
		}
		out.Entries = append(out.Entries, se)
	}
	return out
}

// sortedByName returns entry indices grouped by base name, preserving
// registration order within a name (Prometheus requires one TYPE block
// per metric family).
func (s Snapshot) sortedByName() []SnapEntry {
	out := append([]SnapEntry(nil), s.Entries...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
