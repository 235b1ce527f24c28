package obs

import "testing"

// BenchmarkObsOverhead measures the per-observation cost of the
// telemetry layer in both states:
//
//   - Disabled: all metrics are nil (registry unset). This is the price
//     every instrumented hot path pays when -metrics is off — it must
//     be a single predictable branch and 0 allocs/op.
//   - Enabled: live counter + gauge-max + histogram + auditor delay
//     observation, the full per-packet instrumentation bundle. Still
//     0 allocs/op: allocation happens only at registration time.
//
// TestDisabledPathZeroAllocs and TestEnabledPathZeroAllocs hold both
// bundles to zero allocations.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("DisabledCounter", func(b *testing.B) {
		var c *Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("DisabledHistogram", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("DisabledPacketBundle", func(b *testing.B) {
		var c *Counter
		var g *Gauge
		var h *Histogram
		var a *GuaranteeAuditor
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.SetMax(int64(i))
			h.Observe(int64(i))
			a.ObserveDelay(1, int64(i))
		}
	})
	b.Run("EnabledCounter", func(b *testing.B) {
		c := NewRegistry().Counter("c_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("EnabledHistogram", func(b *testing.B) {
		h := NewRegistry().Histogram("h_us", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("EnabledPacketBundle", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("c_total", "")
		g := r.Gauge("g", "")
		h := r.Histogram("h_us", "")
		a := NewGuaranteeAuditor(r)
		a.Admit(1, 1e6, 1e3, 1e-3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.SetMax(int64(i))
			h.Observe(int64(i))
			a.ObserveDelay(1, int64(i))
		}
	})
}
