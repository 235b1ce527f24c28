package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

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
// every metric has been seen, a capture allocates nothing — across the
// ring's wrap, and after a mid-run registration has widened the rows.
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
	capture := func() {
		tick++
		c.Inc()
		g.Set(tick)
		h.Observe(tick)
		r.Capture(tick)
	}
	if allocs := testing.AllocsPerRun(300, capture); allocs != 0 {
		t.Fatalf("steady-state Capture allocates %v per run, want 0", allocs)
	}
	late := reg.Histogram("late_us", "", "vm", "7")
	late.Observe(3)
	capture() // widens every row for the late histogram's three columns
	if allocs := testing.AllocsPerRun(300, capture); allocs != 0 {
		t.Fatalf("Capture after a mid-run registration allocates %v per run, want 0", allocs)
	}
	if got := len(r.Snapshot().Series); got != 1+1+3+1+64+3 {
		t.Fatalf("%d series, want %d", got, 1+1+3+1+64+3)
	}
}

// sameSnapshot compares two snapshots field by field, values by their
// bits (NaN marks a window before registration and must match too).
func sameSnapshot(got, want SeriesSnapshot) string {
	if fmt.Sprint(got.TimesNs) != fmt.Sprint(want.TimesNs) {
		return fmt.Sprintf("times %v, want %v", got.TimesNs, want.TimesNs)
	}
	if len(got.Series) != len(want.Series) {
		return fmt.Sprintf("%d series, want %d", len(got.Series), len(want.Series))
	}
	for j := range got.Series {
		g, w := got.Series[j], want.Series[j]
		if !reflect.DeepEqual(g.Column, w.Column) || len(g.Values) != len(w.Values) || (g.Labels == nil) != (w.Labels == nil) {
			return fmt.Sprintf("series %d: %+v, want %+v", j, g, w)
		}
		for i := range g.Values {
			if math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
				return fmt.Sprintf("series %s window %d: %v, want %v", g.Key, i, g.Values[i], w.Values[i])
			}
		}
	}
	return ""
}

// TestRollupMatchesRingOracleProperty drives the row-major Rollup and
// the per-series ring rollup it replaced (oracle_test.go) through the
// same random interleaving of registrations — counters, gauges, gauge
// funcs, histograms, some only after the ring has wrapped — value
// changes and captures, and requires equal snapshots after every
// capture. Each run draws a fresh seed.
func TestRollupMatchesRingOracleProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		reg := obs.NewRegistry()
		capacity := 2 + rng.Intn(6)
		got, want := NewRollup(reg, capacity), newRingRollup(reg, capacity)
		var counters []*obs.Counter
		var gauges []*obs.Gauge
		var hists []*obs.Histogram
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // register
				name := fmt.Sprintf("m%d", rng.Intn(12)) // repeats fetch the existing metric
				var labels []string
				if rng.Intn(2) == 0 {
					labels = []string{"k", fmt.Sprint(rng.Intn(3))}
				}
				switch rng.Intn(4) {
				case 0:
					counters = append(counters, reg.Counter(name+"_total", "", labels...))
				case 1:
					gauges = append(gauges, reg.Gauge(name, "", labels...))
				case 2:
					v := rng.NormFloat64()
					reg.GaugeFunc(name+"_fn", "", func() float64 { return v }, labels...)
				case 3:
					hists = append(hists, reg.Histogram(name+"_us", "", labels...))
				}
			case op < 6: // move values
				for _, c := range counters {
					c.Add(rng.Int63n(1000))
				}
				for _, g := range gauges {
					g.Set(rng.Int63n(2000) - 1000)
				}
				for _, h := range hists {
					if rng.Intn(2) == 0 {
						h.Observe(rng.Int63n(1 << 40))
					}
				}
			default:
				now := int64(step) * 1000
				got.Capture(now)
				want.Capture(now)
				if d := sameSnapshot(got.Snapshot(), want.Snapshot()); d != "" {
					t.Fatalf("seed %d trial %d step %d (capacity %d): %s", seed, trial, step, capacity, d)
				}
				if got.Captures() != want.Captures() {
					t.Fatalf("seed %d trial %d: captures %d, want %d", seed, trial, got.Captures(), want.Captures())
				}
			}
		}
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
