package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// The packet-level experiments take seconds each; they run at reduced
// duration here and are skipped entirely in -short mode.

func TestMemcachedContentionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	lines := mustScenarios(t, "fig1")
	for i := range lines {
		lines[i].HorizonNs = 50e6
	}
	rs, err := RunMemcached(lines)
	if err != nil {
		t.Fatal(err)
	}
	alone, contended := rs[0], rs[1]
	if alone.RequestsCompleted == 0 || contended.RequestsCompleted == 0 {
		t.Fatal("no requests completed")
	}
	// Figure 1's point: contention inflates the tail by orders of
	// magnitude.
	if contended.Latencies.Percentile(99) < 10*alone.Latencies.Percentile(99) {
		t.Errorf("contended p99 %.0f µs should be >>10x idle p99 %.0f µs",
			contended.Latencies.Percentile(99), alone.Latencies.Percentile(99))
	}
	if contended.BulkBytes == 0 {
		t.Error("netperf tenant moved no data")
	}
}

func TestMemcachedSiloMeetsGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	sc := mustScenarios(t, "fig11")[4] // Silo req3
	sc.HorizonNs = 50e6
	rs, err := RunMemcached([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.RequestsCompleted == 0 {
		t.Fatal("no requests completed")
	}
	// Silo req3 must hold the p99 within the message-latency guarantee
	// (paper Fig. 11b).
	if got := r.Latencies.Percentile(99); got > r.GuaranteeUs {
		t.Errorf("Silo req3 p99 = %.0f µs exceeds guarantee %.0f µs", got, r.GuaranteeUs)
	}
	// The bulk tenant must still move substantial data (paper: 92-99%
	// of its TCP-alone throughput).
	if r.BulkThroughputBps()*8/1e9 < 10 {
		t.Errorf("bulk throughput %.1f Gbps too low under Silo", r.BulkThroughputBps()*8/1e9)
	}
}

// Figure 11's Silo lines carry Table 2's req1-3 guarantees.
func TestTable2Guarantees(t *testing.T) {
	lines := mustScenarios(t, "fig11")[2:]
	for req, sc := range lines {
		a, b := sc.Tenants[0].Spec.Guarantee, sc.Tenants[1].Spec.Guarantee
		// Per host: 3(B_A + B_B) = 10 Gbps.
		if total := 3 * (a.BandwidthBps + b.BandwidthBps); total < 9.99*units.Gbps || total > 10.01*units.Gbps {
			t.Errorf("req%d: host bandwidth sum = %v", req+1, total)
		}
		if a.DelayBound != 1e-3 || a.BurstRateBps != 1*units.Gbps {
			t.Errorf("req%d: class-A triple wrong: %+v", req+1, a)
		}
	}
	a1, a3 := lines[0].Tenants[0].Spec.Guarantee, lines[2].Tenants[0].Spec.Guarantee
	if a1.BandwidthBps != 210*units.Mbps || a3.BandwidthBps != 2*a1.BandwidthBps {
		t.Error("req1 should guarantee the 210 Mbps average and req3 twice it")
	}
}

func TestComparisonHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	p := DefaultComparisonParams()
	p.DurationSec = 0.02
	sc := comparisonScenario(p)
	silo, err := runScheme(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Scheme = core.SchemeTCP
	tcp, err := runScheme(sc)
	if err != nil {
		t.Fatal(err)
	}
	rs := []SchemeResult{silo, tcp}
	// The headline: Silo never drops compliant traffic and has zero
	// outlier tenants (paper Table 4); TCP drops.
	if silo.Drops != 0 {
		t.Errorf("Silo dropped %d packets", silo.Drops)
	}
	if tcp.Drops == 0 {
		t.Error("TCP should drop under class-B contention")
	}
	if out := silo.OutlierFrac(1); out != 0 {
		t.Errorf("Silo outlier fraction = %.2f, want 0", out)
	}
	if silo.ClassALatUs.Len() == 0 || tcp.ClassALatUs.Len() == 0 {
		t.Fatal("no class-A messages measured")
	}
	if RenderComparison(rs) == "" {
		t.Error("empty render")
	}
}

func TestScaleFigure15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-level simulation")
	}
	p := DefaultScaleParams()
	p.durationSec = 400
	low, err := RunScalePoint(p, "silo", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := RunScalePoint(p, "locality", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// At modest occupancy locality admits (weakly) more than Silo
	// (paper Fig. 15a).
	if low.Result.AdmittedFrac() > loc.Result.AdmittedFrac()+0.02 {
		t.Errorf("silo %.2f should not beat locality %.2f at low occupancy",
			low.Result.AdmittedFrac(), loc.Result.AdmittedFrac())
	}
	// Locality's admittance degrades as occupancy rises (the paper's
	// Fig. 15b mechanism: poor network performance extends jobs).
	locHigh, err := RunScalePoint(p, "locality", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if locHigh.Result.AdmittedFrac() > loc.Result.AdmittedFrac()+1e-9 {
		t.Errorf("locality at 90%% (%.2f) should admit less than at 60%% (%.2f)",
			locHigh.Result.AdmittedFrac(), loc.Result.AdmittedFrac())
	}
	if RenderScalePoints([]ScalePoint{low, loc, locHigh}) == "" {
		t.Error("empty render")
	}
}

func TestPlacementBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("large-topology benchmark")
	}
	p := DefaultPlacementBenchParams()
	p.Requests = 200
	p.tree = TenGbE(4, 10, 25, 8, 5, 5) // 1000 hosts
	r, err := RunPlacementBench(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted == 0 {
		t.Error("nothing accepted")
	}
	if r.MaxNs <= 0 || r.MeanNs <= 0 {
		t.Error("timings not measured")
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}
