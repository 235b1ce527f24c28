package experiments

import (
	"repro/internal/core"
	"testing"
)

// The packet-level experiments take seconds each; they run at reduced
// duration here and are skipped entirely in -short mode.

func TestMemcachedContentionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	p := DefaultMemcachedParams()
	p.DurationSec = 0.05
	rs, err := RunFigure1(p)
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
	p := DefaultMemcachedParams()
	p.DurationSec = 0.05
	a, b := Table2Guarantees(3)
	r, err := RunMemcachedScenario(p, MemcachedScenario{
		Name: "Silo req3", WithBulk: true, GuaranteeA: &a, GuaranteeB: &b,
	})
	if err != nil {
		t.Fatal(err)
	}
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

func TestTable2Guarantees(t *testing.T) {
	for req := 1; req <= 3; req++ {
		a, b := Table2Guarantees(req)
		// Per host: 3(B_A + B_B) = 10 Gbps.
		if total := 3 * (a.BandwidthBps + b.BandwidthBps); total < 9.99*gbps || total > 10.01*gbps {
			t.Errorf("req%d: host bandwidth sum = %v", req, total)
		}
		if a.DelayBound != 1e-3 || a.BurstRateBps != 1*gbps {
			t.Errorf("req%d: class-A triple wrong: %+v", req, a)
		}
	}
	a1, _ := Table2Guarantees(1)
	a3, _ := Table2Guarantees(3)
	if a3.BandwidthBps != 2*a1.BandwidthBps {
		t.Error("req3 should guarantee 2x the average bandwidth")
	}
}

func TestComparisonHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	p := DefaultComparisonParams()
	p.DurationSec = 0.02
	p.Schemes = []core.Scheme{core.SchemeSilo, core.SchemeTCP}
	rs, err := RunComparison(p)
	if err != nil {
		t.Fatal(err)
	}
	var silo, tcp SchemeResult
	for _, r := range rs {
		switch r.Scheme {
		case core.SchemeSilo:
			silo = r
		case core.SchemeTCP:
			tcp = r
		}
	}
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
	p.DurationSec = 400
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
	p.Pods, p.RacksPerPod, p.ServersPerRack = 4, 10, 25 // 1000 hosts
	p.Requests = 200
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
