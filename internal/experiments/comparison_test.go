package experiments

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/units"
)

// synthTenant builds a finished tenant whose estimate is estimateNs: a
// class-A tenant's M/Bmax + d with M = 0, a class-B tenant's
// M/(B/(N−1)) with N = 2 and B = 1e6.
func synthTenant(classA bool, estimateNs int64, lats []float64, msgs, rtoMsgs int) *TenantRun {
	t := Tenant{Spec: tenant.Spec{VMs: 2}}
	if classA {
		t.Driver = Driver{Kind: DriverOLDI}
		t.Spec.Guarantee = tenant.Guarantee{DelayBound: float64(estimateNs) / 1e9, BurstRateBps: 1e9}
	} else {
		t.Driver = Driver{Kind: DriverShuffle, MsgBytes: int(estimateNs / 1000)}
		t.Spec.Guarantee = tenant.Guarantee{BandwidthBps: 1e6}
	}
	tr := &TenantRun{Tenant: t}
	tr.LatencyUs.AddAll(lats)
	tr.Messages, tr.MessagesRTO = msgs, rtoMsgs
	return tr
}

func TestOutlierFrac(t *testing.T) {
	r := &Run{
		Tenants: []*TenantRun{
			// Estimate 1 ms = 1000 µs. p99 = 500 µs: not an outlier.
			synthTenant(true, 1_000_000, []float64{100, 200, 500}, 3, 0),
			// p99 = 3000 µs: 1x and 2x outlier, not 8x.
			synthTenant(true, 1_000_000, []float64{100, 3000}, 2, 0),
			// p99 = 9000 µs: outlier at every multiplier.
			synthTenant(true, 1_000_000, []float64{9000}, 1, 0),
			// Class-B tenants are excluded from Table 4.
			synthTenant(false, 1_000_000, []float64{99999}, 1, 0),
		},
	}
	if got := outlierFrac(r, 1); got != 2.0/3 {
		t.Errorf("outlierFrac(1) = %v, want 2/3", got)
	}
	if got := outlierFrac(r, 2); got != 2.0/3 {
		t.Errorf("outlierFrac(2) = %v, want 2/3", got)
	}
	if got := outlierFrac(r, 8); got != 1.0/3 {
		t.Errorf("outlierFrac(8) = %v, want 1/3", got)
	}
	if outlierFrac(&Run{}, 1) != 0 {
		t.Error("empty run should report 0 outliers")
	}
}

func TestRTOTenantCDF(t *testing.T) {
	r := &Run{
		Tenants: []*TenantRun{
			synthTenant(true, 1, []float64{1}, 100, 0),
			synthTenant(true, 1, []float64{1}, 100, 25),
			synthTenant(false, 1, []float64{1}, 100, 100), // excluded
		},
	}
	cdf := RTOTenantCDF(r)
	if cdf.Len() != 2 {
		t.Fatalf("CDF over %d tenants, want 2", cdf.Len())
	}
	if cdf.Max() != 25 {
		t.Errorf("max RTO%% = %v, want 25", cdf.Max())
	}
	zero := RTOTenantCDF(&Run{Tenants: []*TenantRun{synthTenant(true, 1, nil, 0, 0)}})
	if zero.Len() != 1 || zero.Max() != 0 {
		t.Error("zero-message tenant should report 0")
	}
}

func TestClassBNormalizedLatency(t *testing.T) {
	r := &Run{
		Tenants: []*TenantRun{
			// Mean 2000 µs vs estimate 1 ms -> 2.0.
			synthTenant(false, 1_000_000, []float64{1000, 3000}, 2, 0),
			// Class-A excluded.
			synthTenant(true, 1_000_000, []float64{1}, 1, 0),
			// No estimate: skipped.
			synthTenant(false, 0, []float64{5}, 1, 0),
		},
	}
	s := ClassBNormalizedLatency(r)
	if s.Len() != 1 {
		t.Fatalf("normalized sample = %d entries, want 1", s.Len())
	}
	if got := s.Max(); got < 1.99 || got > 2.01 {
		t.Errorf("normalized latency = %v, want 2.0", got)
	}
}

func TestTenantStreamDeterministicAndBounded(t *testing.T) {
	p := DefaultComparisonParams()
	a := tenantStream(stats.NewRand(p.Seed))
	b := tenantStream(stats.NewRand(p.Seed))
	if len(a) != len(b) {
		t.Fatal("stream not deterministic")
	}
	slots := comparisonSlots
	total := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stream not deterministic")
		}
		if a[i].vms < 4 || a[i].vms > 2*comparisonAvgTenantVMs {
			t.Errorf("tenant size %d out of bounds", a[i].vms)
		}
		if a[i].classA {
			if a[i].g.DelayBound != 1e-3 {
				t.Error("class-A delay bound wrong")
			}
		} else if a[i].g.DelayBound != 0 {
			t.Error("class-B should buy no delay guarantee")
		}
		total += a[i].vms
	}
	if total < 3*slots {
		t.Errorf("stream too short: %d VM-slots for %d slots", total, slots)
	}
}

func TestClassAEstimate(t *testing.T) {
	g := table3ClassA()
	// 5 KB message at Bmax=1 Gbps plus d=1 ms.
	want := int64(5000/(1*units.Gbps)*1e9) + 1_000_000
	if got := classAEstimateNs(g, 5000); got != want {
		t.Errorf("estimate = %d, want %d", got, want)
	}
	// Without Bmax the average rate applies.
	g2 := g
	g2.BurstRateBps = 0
	if got := classAEstimateNs(g2, 5000); got <= want {
		t.Errorf("no-Bmax estimate %d should exceed %d", got, want)
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(0, 1, 10) != 1 || clamp(99, 1, 10) != 10 {
		t.Error("clamp wrong")
	}
}

func TestRunScalePointUnknownPlacer(t *testing.T) {
	if _, err := RunScalePoint(DefaultScaleParams(), "bogus", 0.5); err == nil {
		t.Error("unknown placer accepted")
	}
}

func TestFigure16bSweepsPermutation(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-level simulation")
	}
	p := DefaultScaleParams()
	p.durationSec = 150
	byX, err := RunFigure16b(p, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(byX) != 2 {
		t.Fatalf("x points = %d", len(byX))
	}
	for x, pts := range byX {
		if len(pts) != 3 {
			t.Errorf("x=%v has %d placers", x, len(pts))
		}
	}
	// Denser traffic raises locality's utilization.
	utilAt := func(x float64) float64 {
		for _, pt := range byX[x] {
			if pt.Placer == "locality" {
				return pt.Result.AvgUtilization
			}
		}
		return -1
	}
	if utilAt(2) <= utilAt(0.5) {
		t.Errorf("utilization should rise with density: %.3f vs %.3f", utilAt(2), utilAt(0.5))
	}
}
