package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/units"
)

// ComparisonParams configures the §6.2 packet-level comparison of
// Silo against TCP, DCTCP, HULL, Oktopus and Okto+ (Figures 12–14,
// Table 4). The paper simulates 10 racks × 40 servers × 8 VMs; this
// tree keeps the 10 racks but scales each down to 4 servers × 4 slots
// (same shape, tractable event counts), with the paper's 1:5 rack
// uplink oversubscription, 90% of the slots to fill and 2 MB class-B
// messages.
type ComparisonParams struct {
	// DurationSec of offered load (plus drain).
	DurationSec float64
	Seed        uint64
}

// DefaultComparisonParams returns a laptop-scale configuration.
func DefaultComparisonParams() ComparisonParams {
	return ComparisonParams{DurationSec: 0.05, Seed: 11}
}

// The comparison's fixed tree and tenant mix.
const (
	comparisonRacks          = 10
	comparisonServersPerRack = 4
	comparisonSlotsPerServer = 4
	// comparisonSlots is the number of VM slots in the tree.
	comparisonSlots = comparisonRacks * comparisonServersPerRack * comparisonSlotsPerServer
	// comparisonOversub is the rack uplink oversubscription (paper: 1:5).
	comparisonOversub = 5
	// comparisonOccupancy is the fraction of slots to fill (paper: 90%).
	comparisonOccupancy = 0.9
	// comparisonClassAFrac of tenants are class A (delay-sensitive
	// all-to-one).
	comparisonClassAFrac = 0.5
	// comparisonAvgTenantVMs is the mean tenant size.
	comparisonAvgTenantVMs = 9
	// comparisonClassBMsgBytes is the class-B bulk message size.
	comparisonClassBMsgBytes = 2 << 20
)

// tenantRequest is one entry of the shared tenant stream.
type tenantRequest struct {
	classA bool
	vms    int
	g      tenant.Guarantee
}

// tenantStream draws the same tenant sequence for every scheme
// (Table 3 parameters, exponentially distributed as in the paper).
func tenantStream(rng *stats.Rand) []tenantRequest {
	var reqs []tenantRequest
	total := 0
	for total < 3*comparisonSlots { // more than any scheme can admit
		classA := rng.Float64() < comparisonClassAFrac
		vms := int(rng.Exp(comparisonAvgTenantVMs))
		if vms < 4 {
			vms = 4
		}
		if vms > 2*comparisonAvgTenantVMs {
			vms = 2 * comparisonAvgTenantVMs
		}
		var g tenant.Guarantee
		if classA {
			g = tenant.Guarantee{
				BandwidthBps: clamp(rng.Exp(0.25*units.Gbps), 0.05*units.Gbps, 0.5*units.Gbps),
				BurstBytes:   clamp(rng.Exp(15e3), 3e3, 30e3),
				DelayBound:   1e-3,
				BurstRateBps: 1 * units.Gbps,
			}
		} else {
			g = tenant.Guarantee{
				BandwidthBps: clamp(rng.Exp(2*units.Gbps), 0.5*units.Gbps, 3*units.Gbps),
				BurstBytes:   1.5e3,
				BurstRateBps: 2 * units.Gbps,
			}
		}
		reqs = append(reqs, tenantRequest{classA: classA, vms: vms, g: g})
		total += vms
	}
	return reqs
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RunComparison runs every scheme in turn over the same tenant stream
// and returns one finished run per scheme, in core.AllSchemes order.
func RunComparison(p ComparisonParams) ([]*Run, error) {
	return runComparison(comparisonScenario(p))
}

// runComparison runs the scenario under every scheme in turn.
func runComparison(sc Scenario) ([]*Run, error) {
	var runs []*Run
	for _, s := range core.AllSchemes {
		sc.Scheme = s
		run, err := RunScenario(sc, Env{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// comparisonScenario offers the seeded tenant stream (the scheme is
// runComparison's to set): class A runs the OLDI pattern with responses
// a fraction of the burst allowance (the paper's Table-1 analysis: low
// lateness needs the allowance to cover a few messages), class B the
// shuffle; both hoses sit at the backlogged fixed point from t=0.
func comparisonScenario(p ComparisonParams) Scenario {
	sc := Scenario{
		Topology:  TenGbE(1, comparisonRacks, comparisonServersPerRack, comparisonSlotsPerServer, comparisonOversub, 1),
		Seed:      p.Seed ^ 0xabcdef,
		TargetVMs: int(comparisonOccupancy * comparisonSlots),
		VMBase:    1000,
		VMGap:     10,
		HorizonNs: int64(p.DurationSec * 1e9),
		DrainNs:   3e9, // drain retransmissions
	}
	for i, req := range tenantStream(stats.NewRand(p.Seed)) {
		t := Tenant{Spec: tenant.Spec{
			ID:           i + 1,
			Name:         fmt.Sprintf("t%d", i+1),
			VMs:          req.vms,
			Guarantee:    req.g,
			FaultDomains: 2,
		}}
		// The class-B draw clamps B at 3 Gbps against a fixed 2 Gbps Bmax;
		// a request with B above Bmax is malformed, no scheme's placer
		// takes it, and it is not offered (its stream index stays its
		// own, so the others keep their IDs).
		if t.Spec.Validate() != nil {
			continue
		}
		if req.classA {
			t.Hose = Hose{Kind: HoseFairShare, Pattern: PatternAllToOne}
			t.Driver = Driver{Kind: DriverOLDI, MsgBytes: max(int(req.g.BurstBytes/3), units.MTUBytes), SplitRand: true}
		} else {
			t.Hose = Hose{Kind: HoseFairShare, Pattern: PatternAllToAll}
			t.Driver = Driver{Kind: DriverShuffle, MsgBytes: comparisonClassBMsgBytes}
		}
		sc.Tenants = append(sc.Tenants, t)
	}
	return sc
}

// classA reports whether the tenant is class A: the delay-sensitive
// OLDI pattern, not the class-B shuffle.
func classA(tr *TenantRun) bool { return tr.Tenant.Driver.Kind == DriverOLDI }

// estimateNs is the tenant's message-latency estimate: for class A,
// Silo's guarantee for its message (classAEstimateNs); for class B,
// the transfer time at its per-flow reserved rate under the hose
// model, B/(N−1).
func estimateNs(tr *TenantRun) int64 {
	g, n, msg := tr.Tenant.Spec.Guarantee, tr.Tenant.Spec.VMs, tr.Tenant.Driver.MsgBytes
	if classA(tr) {
		return classAEstimateNs(g, msg)
	}
	return int64(float64(msg) / (g.BandwidthBps / float64(n-1)) * 1e9)
}

// classAEstimateNs is the paper's message-latency estimate for a
// class-A burst: M/Bmax + d (M is within the burst allowance).
func classAEstimateNs(g tenant.Guarantee, msg int) int64 {
	bmax := g.BurstRateBps
	if bmax <= 0 {
		bmax = g.BandwidthBps
	}
	return int64((float64(msg)/bmax + g.DelayBound) * 1e9)
}

// ClassALatency pools every class-A message latency (µs): Figure 12's
// distribution.
func ClassALatency(run *Run) *stats.Sample {
	s := stats.NewSample(1 << 16)
	for _, tr := range run.Tenants {
		if classA(tr) {
			s.AddAll(tr.LatencyUs.Values())
		}
	}
	return s
}

// outlierFrac is Table 4's number: the fraction of class-A tenants
// whose p99 message latency exceeds mult × their estimate.
func outlierFrac(run *Run, mult float64) float64 {
	tenants, outliers := 0, 0
	for _, tr := range run.Tenants {
		if !classA(tr) {
			continue
		}
		tenants++
		if tr.LatencyUs.Len() > 0 && tr.LatencyUs.Percentile(99)*1e3 > mult*float64(estimateNs(tr)) {
			outliers++
		}
	}
	if tenants == 0 {
		return 0
	}
	return float64(outliers) / float64(tenants)
}

// RTOTenantCDF is Figure 13's distribution: over class-A tenants, the
// percentage of each one's messages that suffered at least one
// retransmission timeout.
func RTOTenantCDF(run *Run) *stats.Sample {
	s := stats.NewSample(len(run.Tenants))
	for _, tr := range run.Tenants {
		if classA(tr) {
			frac := 0.0
			if tr.Messages > 0 {
				frac = float64(tr.MessagesRTO) / float64(tr.Messages)
			}
			s.Add(100 * frac)
		}
	}
	return s
}

// ClassBNormalizedLatency is Figure 14's distribution: over class-B
// tenants, mean message latency normalized to the estimate.
func ClassBNormalizedLatency(run *Run) *stats.Sample {
	s := stats.NewSample(len(run.Tenants))
	for _, tr := range run.Tenants {
		if classA(tr) || tr.LatencyUs.Len() == 0 {
			continue
		}
		if est := estimateNs(tr); est != 0 {
			s.Add(tr.LatencyUs.Mean() * 1e3 / float64(est))
		}
	}
	return s
}

// Figure12Row is one scheme's row of Figure 12: the class-A p50, p95,
// p99 and max message latency in µs, and the run's drops.
func Figure12Row(run *Run) []float64 {
	lat := ClassALatency(run)
	return []float64{lat.Percentile(50), lat.Percentile(95), lat.Percentile(99), lat.Max(), float64(run.Net.TotalDrops())}
}

// Table4Row is one scheme's row of Table 4: the percentage of outlier
// class-A tenants at 1×, 2× and 8× their estimate.
func Table4Row(run *Run) []float64 {
	return []float64{100 * outlierFrac(run, 1), 100 * outlierFrac(run, 2), 100 * outlierFrac(run, 8)}
}

// RenderComparison formats Figures 12–14 and Table 4 from one run per
// scheme.
func RenderComparison(runs []*Run) string {
	var b strings.Builder
	b.WriteString("Figure 12 — class-A message latency (µs):\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %8s\n", "scheme", "p50", "p95", "p99", "max", "drops")
	for _, run := range runs {
		r := Figure12Row(run)
		fmt.Fprintf(&b, "%-8s %10.0f %10.0f %10.0f %10.0f %8.0f\n", run.Scenario.Scheme, r[0], r[1], r[2], r[3], r[4])
	}
	b.WriteString("\nFigure 13 — % of class-A tenants vs % messages with RTOs (p50/p90/max):\n")
	for _, run := range runs {
		cdf := RTOTenantCDF(run)
		fmt.Fprintf(&b, "%-8s p50=%.2f%% p90=%.2f%% max=%.2f%%\n", run.Scenario.Scheme,
			cdf.Percentile(50), cdf.Percentile(90), cdf.Max())
	}
	b.WriteString("\nTable 4 — outlier class-A tenants (%):\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "scheme", "1x", "2x", "8x")
	for _, run := range runs {
		r := Table4Row(run)
		fmt.Fprintf(&b, "%-8s %10.1f %10.1f %10.1f\n", run.Scenario.Scheme, r[0], r[1], r[2])
	}
	b.WriteString("\nFigure 14 — class-B mean latency / estimate (p10/p50/p90):\n")
	for _, run := range runs {
		s := ClassBNormalizedLatency(run)
		fmt.Fprintf(&b, "%-8s p10=%.2f p50=%.2f p90=%.2f\n", run.Scenario.Scheme,
			s.Percentile(10), s.Percentile(50), s.Percentile(90))
	}
	return b.String()
}
