package timeseries

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func populate(reg *obs.Registry) (*obs.Counter, *obs.Gauge, *obs.Histogram) {
	c := reg.Counter("pkts_total", "", "tenant", "1")
	g := reg.Gauge("queue_bytes", "", "port", "nic0")
	h := reg.Histogram("delay_us", "", "tenant", "1")
	reg.GaugeFunc("headroom", "", func() float64 { return 7.5 })
	return c, g, h
}

func TestCaptureAndSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	c, g, h := populate(reg)

	r := NewRollup(reg, 8)
	for i := 1; i <= 3; i++ {
		c.Add(10)
		g.Set(int64(i))
		h.Observe(int64(100 * i))
		r.Capture(int64(i) * 1e6)
	}

	s := r.Snapshot()
	if len(s.TimesNs) != 3 || s.TimesNs[0] != 1e6 || s.TimesNs[2] != 3e6 {
		t.Fatalf("times = %v", s.TimesNs)
	}
	// 1 counter + 1 gauge + 3 histogram-derived + 1 gauge-func.
	if len(s.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(s.Series))
	}
	cs, ok := s.Get(`pkts_total{tenant="1"}`)
	if !ok {
		t.Fatal("counter series missing")
	}
	if cs.Values[0] != 10 || cs.Values[2] != 30 {
		t.Errorf("counter samples = %v", cs.Values)
	}
	d := WindowDeltas(cs.Values)
	if d[0] != 10 || d[1] != 10 || d[2] != 10 {
		t.Errorf("deltas = %v", d)
	}
	hc, ok := s.Get(`delay_us{tenant="1"}#count`)
	if !ok || hc.Values[2] != 3 {
		t.Errorf("hist count series = %+v ok=%v", hc, ok)
	}
	hm, ok := s.Get(`delay_us{tenant="1"}#max`)
	if !ok || hm.Values[2] != 300 {
		t.Errorf("hist max series = %+v ok=%v", hm, ok)
	}
	gf, ok := s.Get("headroom")
	if !ok || gf.Values[1] != 7.5 {
		t.Errorf("gauge-func series = %+v ok=%v", gf, ok)
	}
}

func TestRingOverwrite(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total", "")
	r := NewRollup(reg, 4)
	for i := 1; i <= 10; i++ {
		c.Inc()
		r.Capture(int64(i))
	}
	s := r.Snapshot()
	if len(s.TimesNs) != 4 {
		t.Fatalf("retained %d windows, want 4", len(s.TimesNs))
	}
	if s.TimesNs[0] != 7 || s.TimesNs[3] != 10 {
		t.Errorf("times = %v, want [7 8 9 10]", s.TimesNs)
	}
	cs, _ := s.Get("c_total")
	if cs.Values[0] != 7 || cs.Values[3] != 10 {
		t.Errorf("values = %v", cs.Values)
	}
	if r.Captures() != 10 {
		t.Errorf("captures = %d", r.Captures())
	}
}

// TestRingWraparoundBoundaries pins the ring's three edge states: full
// but not yet wrapped (captures == capacity), the first overwrite
// (capacity + 1), and deep wrap, checking at every step that the
// snapshot is chronological and value i equals timestamp i (each
// capture writes the counter's value == its timestamp, so any
// off-by-one between the time ring and a value ring shows up as a
// mismatch).
func TestRingWraparoundBoundaries(t *testing.T) {
	const cap = 4
	reg := obs.NewRegistry()
	c := reg.Counter("w_total", "")
	r := NewRollup(reg, cap)

	for i := 1; i <= 3*cap+1; i++ {
		c.Inc()
		r.Capture(int64(i))
		s := r.Snapshot()

		want := i
		if want > cap {
			want = cap
		}
		if len(s.TimesNs) != want {
			t.Fatalf("capture %d: retained %d windows, want %d", i, len(s.TimesNs), want)
		}
		cs, ok := s.Get("w_total")
		if !ok {
			t.Fatalf("capture %d: series missing", i)
		}
		for j := 0; j < want; j++ {
			wantT := int64(i - want + 1 + j)
			if s.TimesNs[j] != wantT {
				t.Fatalf("capture %d: times = %v, slot %d want %d", i, s.TimesNs, j, wantT)
			}
			if cs.Values[j] != float64(wantT) {
				t.Fatalf("capture %d: values = %v, slot %d want %v", i, cs.Values, j, wantT)
			}
		}
	}
}

// TestMidRunRegistrationAcrossWraparound registers a series mid-run,
// wraps the ring past it, and checks the NaN prefix shrinks by exactly
// one window per capture until the pre-registration windows age out.
func TestMidRunRegistrationAcrossWraparound(t *testing.T) {
	const cap = 4
	reg := obs.NewRegistry()
	early := reg.Counter("early_total", "")
	r := NewRollup(reg, cap)

	// Two captures before the late series exists.
	for i := 1; i <= 2; i++ {
		early.Inc()
		r.Capture(int64(i))
	}
	late := reg.Counter("late_total", "")

	for i := 3; i <= 2+cap+1; i++ {
		late.Inc()
		r.Capture(int64(i))

		s := r.Snapshot()
		ls, ok := s.Get("late_total")
		if !ok {
			t.Fatalf("capture %d: late series missing", i)
		}
		// Pre-registration windows still retained: captures 1 and 2,
		// minus those already overwritten.
		overwritten := i - cap
		if overwritten < 0 {
			overwritten = 0
		}
		wantNaN := 2 - overwritten
		if wantNaN < 0 {
			wantNaN = 0
		}
		gotNaN := 0
		for _, v := range ls.Values {
			if math.IsNaN(v) {
				gotNaN++
			}
		}
		if gotNaN != wantNaN {
			t.Fatalf("capture %d: %d NaN windows %v, want %d", i, gotNaN, ls.Values, wantNaN)
		}
		// NaNs must form a prefix (gaps belong to the oldest windows).
		for j, v := range ls.Values {
			if j < wantNaN != math.IsNaN(v) {
				t.Fatalf("capture %d: NaN not a prefix: %v", i, ls.Values)
			}
		}
		if got := ls.Values[len(ls.Values)-1]; got != float64(i-2) {
			t.Fatalf("capture %d: newest late sample = %v, want %d", i, got, i-2)
		}
	}
}

func TestMidRunRegistrationGetsNaN(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("early_total", "")
	r := NewRollup(reg, 8)
	c.Inc()
	r.Capture(1)
	late := reg.Counter("late_total", "")
	late.Add(5)
	r.Capture(2)

	s := r.Snapshot()
	ls, ok := s.Get("late_total")
	if !ok {
		t.Fatal("late series missing")
	}
	if !math.IsNaN(ls.Values[0]) {
		t.Errorf("window before registration = %v, want NaN", ls.Values[0])
	}
	if ls.Values[1] != 5 {
		t.Errorf("first real sample = %v, want 5", ls.Values[1])
	}
	d := WindowDeltas(ls.Values)
	if !math.IsNaN(d[0]) || d[1] != 5 {
		t.Errorf("deltas = %v", d)
	}
}

func TestNilRegistry(t *testing.T) {
	r := NewRollup(nil, 4)
	r.Capture(1)
	r.Capture(2)
	s := r.Snapshot()
	if len(s.TimesNs) != 2 || len(s.Series) != 0 {
		t.Errorf("nil-registry snapshot = %+v", s)
	}
}

// TestCaptureZeroAllocSteadyState enforces the acceptance bar: once
// every metric has been seen, a capture allocates nothing.
func TestCaptureZeroAllocSteadyState(t *testing.T) {
	reg := obs.NewRegistry()
	c, g, h := populate(reg)
	// A realistically sized registry: per-port gauges, per-VM
	// histograms.
	for i := 0; i < 64; i++ {
		reg.Gauge("port_hwm_bytes", "", "port", string(rune('a'+i%26))+string(rune('0'+i%10)))
	}
	r := NewRollup(reg, 128)
	r.Capture(0) // warmup: series registration

	var tick int64
	allocs := testing.AllocsPerRun(100, func() {
		tick++
		c.Inc()
		g.Set(tick)
		h.Observe(tick)
		r.Capture(tick)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Capture allocates %v per run, want 0", allocs)
	}
}

// BenchmarkCapture times the steady-state window capture that
// TestCaptureZeroAllocSteadyState holds to zero allocations.
func BenchmarkCapture(b *testing.B) {
	reg := obs.NewRegistry()
	populate(reg)
	for i := 0; i < 64; i++ {
		reg.Gauge("port_hwm_bytes", "", "port", string(rune('a'+i%26))+string(rune('0'+i%10)))
	}
	a := obs.NewGuaranteeAuditor(reg)
	a.Admit(1, 1e9, 15e3, 1e-3)
	r := NewRollup(reg, 512)
	r.Capture(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Capture(int64(i))
	}
}

func BenchmarkSnapshot(b *testing.B) {
	reg := obs.NewRegistry()
	populate(reg)
	r := NewRollup(reg, 512)
	for i := 0; i < 512; i++ {
		r.Capture(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
