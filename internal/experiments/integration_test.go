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
	runs, err := RunLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	alone, contended := &runs[0].Tenants[0].LatencyUs, &runs[1].Tenants[0].LatencyUs
	if alone.Len() == 0 || contended.Len() == 0 {
		t.Fatal("no requests completed")
	}
	// Figure 1's point: contention inflates the tail by orders of
	// magnitude.
	if contended.Percentile(99) < 10*alone.Percentile(99) {
		t.Errorf("contended p99 %.0f µs should be >>10x idle p99 %.0f µs",
			contended.Percentile(99), alone.Percentile(99))
	}
	if runs[1].Tenants[1].BytesReceived == 0 {
		t.Error("netperf tenant moved no data")
	}
}

func TestMemcachedSiloMeetsGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	sc := mustScenarios(t, "fig11")[4] // Silo req3
	sc.HorizonNs = 50e6
	runs, err := RunLines([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	r := MemcachedRow(runs[0]) // p50, p99, p99.9, guarantee, req/s, bulk Gbps
	if r[4] == 0 {
		t.Fatal("no requests completed")
	}
	// Silo req3 must hold the p99 within the message-latency guarantee
	// (paper Fig. 11b).
	if r[1] > r[3] {
		t.Errorf("Silo req3 p99 = %.0f µs exceeds guarantee %.0f µs", r[1], r[3])
	}
	// The bulk tenant must still move substantial data (paper: 92-99%
	// of its TCP-alone throughput).
	if r[5] < 10 {
		t.Errorf("bulk throughput %.1f Gbps too low under Silo", r[5])
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
	silo, err := RunScenario(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Scheme = core.SchemeTCP
	tcp, err := RunScenario(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// The headline: Silo never drops compliant traffic and has zero
	// outlier tenants (paper Table 4); TCP drops.
	if drops := silo.Net.TotalDrops(); drops != 0 {
		t.Errorf("Silo dropped %d packets", drops)
	}
	if tcp.Net.TotalDrops() == 0 {
		t.Error("TCP should drop under class-B contention")
	}
	if out := outlierFrac(silo, 1); out != 0 {
		t.Errorf("Silo outlier fraction = %.2f, want 0", out)
	}
	if ClassALatency(silo).Len() == 0 || ClassALatency(tcp).Len() == 0 {
		t.Fatal("no class-A messages measured")
	}
	if RenderComparison([]*Run{silo, tcp}) == "" {
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
