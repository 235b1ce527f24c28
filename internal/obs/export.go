package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The exporter writes one format, Prometheus text exposition
// (WritePrometheus): counters and gauges as single samples, histograms
// as cumulative le-bucket families with _sum and _count, plus _min/_max
// gauges for the exact extremes the audit relies on.

// WritePrometheus writes the registry in Prometheus text exposition
// format. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

func writePrometheus(w io.Writer, snap Snapshot) error {
	var b strings.Builder
	lastName := ""
	for _, e := range snap.sortedByName() {
		name := SanitizeMetricName(e.Name)
		if e.Name != lastName {
			lastName = e.Name
			if e.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", name, e.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, e.Kind)
		}
		switch e.Kind {
		case KindCounter, KindGauge, KindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", promKey(name, e.Labels), formatFloat(e.Value))
		case KindHistogram:
			writePromHistogram(&b, name, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SanitizeMetricName maps an arbitrary metric name onto the Prometheus
// exposition grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every invalid rune
// becomes '_', and a leading digit gains a '_' prefix. Valid names are
// returned unchanged (no allocation).
func SanitizeMetricName(s string) string { return sanitizeIdent(s, true) }

// SanitizeLabelName maps an arbitrary label name onto the Prometheus
// label grammar [a-zA-Z_][a-zA-Z0-9_]* the same way.
func SanitizeLabelName(s string) string { return sanitizeIdent(s, false) }

func sanitizeIdent(s string, allowColon bool) string {
	if s == "" {
		return "_"
	}
	valid := func(i int, c byte) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			return true
		case c == ':':
			return allowColon
		case c >= '0' && c <= '9':
			return i > 0
		}
		return false
	}
	ok := true
	for i := 0; i < len(s); i++ {
		if !valid(i, s[i]) {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case valid(i, c):
			b.WriteByte(c)
		case i == 0 && c >= '0' && c <= '9':
			b.WriteByte('_')
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promKey renders one exposition series identity with sanitized label
// names (label values are escaped by the %q in metricKey).
func promKey(name string, labels []string) string {
	for i := 0; i+1 < len(labels); i += 2 {
		if SanitizeLabelName(labels[i]) != labels[i] {
			clean := append([]string(nil), labels...)
			for j := 0; j+1 < len(clean); j += 2 {
				clean[j] = SanitizeLabelName(clean[j])
			}
			return metricKey(name, clean)
		}
	}
	return metricKey(name, labels)
}

// writePromHistogram emits the cumulative bucket family for one
// histogram. Only occupied buckets (plus +Inf) are emitted: with
// power-of-two buckets the 64-entry family would otherwise be mostly
// zeros.
func writePromHistogram(b *strings.Builder, name string, e SnapEntry) {
	h := e.Hist
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if c == 0 {
			continue
		}
		labels := append(append([]string(nil), e.Labels...), "le", strconv.FormatInt(BucketUpperBound(i), 10))
		fmt.Fprintf(b, "%s %d\n", promKey(name+"_bucket", labels), cum)
	}
	inf := append(append([]string(nil), e.Labels...), "le", "+Inf")
	fmt.Fprintf(b, "%s %d\n", promKey(name+"_bucket", inf), h.Count)
	fmt.Fprintf(b, "%s %d\n", promKey(name+"_sum", e.Labels), h.Sum)
	fmt.Fprintf(b, "%s %d\n", promKey(name+"_count", e.Labels), h.Count)
	fmt.Fprintf(b, "%s %d\n", promKey(name+"_min", e.Labels), h.Min)
	fmt.Fprintf(b, "%s %d\n", promKey(name+"_max", e.Labels), h.Max)
}

func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteFile exports the registry to path as Prometheus text ("-"
// writes to stdout). A nil registry or an empty path is a no-op.
func (r *Registry) WriteFile(path string) error {
	if r == nil || path == "" {
		return nil
	}
	if path == "-" {
		return r.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.WritePrometheus(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
