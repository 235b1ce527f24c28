package obs

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("occupancy_bytes", "queue occupancy")
	g.Set(70)
	if got := g.Value(); got != 70 {
		t.Errorf("gauge = %d, want 70", got)
	}
	g.SetMax(50)
	if got := g.Value(); got != 70 {
		t.Errorf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(90)
	if got := g.Value(); got != 90 {
		t.Errorf("SetMax = %d, want 90", got)
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "tenant", "1")
	b := r.Counter("x_total", "", "tenant", "1")
	c := r.Counter("x_total", "", "tenant", "2")
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
}

func TestNilRegistryAndMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "")
	r.GaugeFunc("d", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// All operations must be safe no-ops.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Error("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Entries) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(""); err != nil {
		t.Fatal(err)
	}
	var a *GuaranteeAuditor
	a.ObserveDelay(1, 5)
	if a.Admit(1, 1, 1, 1) != nil {
		t.Error("nil auditor Admit must return nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 1025 {
		t.Errorf("sum = %d, want 1025", h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", h.Min(), h.Max())
	}
	b := h.Buckets()
	// v=0 -> bucket 0; v=1 -> bucket 1; v=2,3 -> bucket 2; v=4,7 ->
	// bucket 3; v=8 -> bucket 4; v=1000 -> bucket 10.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1}
	for i, c := range b {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if ub := BucketUpperBound(10); ub != 1023 {
		t.Errorf("upper bound of bucket 10 = %d, want 1023", ub)
	}
	if ub := BucketUpperBound(63); ub != math.MaxInt64 {
		t.Errorf("upper bound of bucket 63 = %d, want MaxInt64", ub)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("silo_reqs_total", "requests served", "tenant", "7").Add(3)
	r.Gauge("silo_occ_bytes", "occupancy").Set(42)
	r.GaugeFunc("silo_live", "live value", func() float64 { return 1.5 })
	h := r.Histogram("silo_lat_us", "latency")
	h.Observe(3)
	h.Observe(900)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE silo_reqs_total counter",
		`silo_reqs_total{tenant="7"} 3`,
		"# TYPE silo_occ_bytes gauge",
		"silo_occ_bytes 42",
		"silo_live 1.5",
		"# TYPE silo_lat_us histogram",
		`silo_lat_us_bucket{le="3"} 1`,
		`silo_lat_us_bucket{le="1023"} 2`,
		`silo_lat_us_bucket{le="+Inf"} 2`,
		"silo_lat_us_sum 903",
		"silo_lat_us_count 2",
		"silo_lat_us_max 900",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestGuaranteeAuditor(t *testing.T) {
	r := NewRegistry()
	a := NewGuaranteeAuditor(r)
	ta := a.Admit(1, 31.25e6, 15e3, 1e-3) // d = 1 ms
	a.Admit(2, 250e6, 1.5e3, 0)           // no bound
	if ta2 := a.Admit(1, 1, 1, 1); ta2 != ta {
		t.Error("re-admitting tenant 1 must return existing state")
	}

	a.ObserveDelay(1, 200_000)   // 200 µs: fine
	a.ObserveDelay(1, 1_500_000) // 1.5 ms: violation
	a.ObserveDelay(2, 9_000_000) // unbounded tenant: never a violation
	a.ObserveDelay(3, 1)         // unknown tenant: ignored

	if v := ta.Violations.Value(); v != 1 {
		t.Errorf("violations = %d, want 1", v)
	}
	if got := ta.MaxDelayNs.Value(); got != 1_500_000 {
		t.Errorf("max delay = %d, want 1500000", got)
	}
	sum := a.Summary()
	for _, want := range []string{"tenant 1", "packets=2", "maxDelay=1500.0µs", "bound=1000.0µs", "violations=1", "without delay bound"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
	// The registry saw the per-tenant metrics.
	var found bool
	for _, e := range r.Snapshot().Entries {
		if metricKey(e.Name, e.Labels) == metricKey("silo_audit_delay_violations_total", []string{"tenant", "1"}) {
			found = e.Value == 1
		}
	}
	if !found {
		t.Error("registry missing violation counter")
	}
}

func TestGuaranteeAuditorWithoutRegistry(t *testing.T) {
	a := NewGuaranteeAuditor(nil)
	a.Admit(5, 1e6, 1e3, 1e-4)
	a.ObserveDelay(5, 50_000)
	a.ObserveDelay(5, 200_000)
	ta, ok := a.Tenant(5)
	if !ok {
		t.Fatal("tenant not admitted")
	}
	if ta.Violations.Value() != 1 || ta.Packets.Value() != 2 {
		t.Errorf("violations/packets = %d/%d, want 1/2",
			ta.Violations.Value(), ta.Packets.Value())
	}
	if !strings.Contains(a.Summary(), "violations=1") {
		t.Errorf("summary: %s", a.Summary())
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var a *GuaranteeAuditor
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.SetMax(9)
		h.Observe(123)
		a.ObserveDelay(1, 456)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
}

func TestEnabledPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_us", "")
	a := NewGuaranteeAuditor(r)
	a.Admit(1, 1e6, 1e3, 1e-3)
	var v int64
	allocs := testing.AllocsPerRun(1000, func() {
		v++
		c.Inc()
		g.SetMax(v)
		h.Observe(v)
		a.ObserveDelay(1, v)
	})
	if allocs != 0 {
		t.Errorf("enabled path allocates %v per op, want 0", allocs)
	}
}

func TestWriteFileFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Add(1)
	dir := t.TempDir()

	promPath := dir + "/m.prom"
	if err := r.WriteFile(promPath); err != nil {
		t.Fatal(err)
	}
	jsonPath := dir + "/m.json"
	if err := r.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	prom := readFile(t, promPath)
	if !strings.Contains(prom, "# TYPE x_total counter") {
		t.Errorf("prom file: %s", prom)
	}
	// The extension selects nothing: every path gets Prometheus text.
	if got := readFile(t, jsonPath); got != prom {
		t.Errorf("m.json holds %q, want the Prometheus text %q", got, prom)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
