package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// ComparisonParams configures the §6.2 packet-level comparison of
// Silo against TCP, DCTCP, HULL, Oktopus and Okto+ (Figures 12–14,
// Table 4). The paper simulates 10 racks × 40 servers × 8 VMs; the
// default here is scaled down (same shape, tractable event counts) and
// the CLI can run larger instances.
type ComparisonParams struct {
	Racks, ServersPerRack, SlotsPerServer int
	// Oversub is the rack uplink oversubscription (paper: 1:5).
	Oversub float64
	// DurationSec of offered load (plus drain).
	DurationSec float64
	// OccupancyTarget is the fraction of slots to fill (paper: 90%).
	OccupancyTarget float64
	// ClassAFrac of tenants are class A (delay-sensitive all-to-one).
	ClassAFrac float64
	// AvgTenantVMs is the mean tenant size.
	AvgTenantVMs int
	// ClassBMsgBytes is the class-B bulk message size.
	ClassBMsgBytes int
	Seed           uint64
	Schemes        []core.Scheme
}

// DefaultComparisonParams returns a laptop-scale configuration.
func DefaultComparisonParams() ComparisonParams {
	return ComparisonParams{
		Racks:           10,
		ServersPerRack:  4,
		SlotsPerServer:  4,
		Oversub:         5,
		DurationSec:     0.05,
		OccupancyTarget: 0.9,
		ClassAFrac:      0.5,
		AvgTenantVMs:    9,
		ClassBMsgBytes:  2 << 20,
		Seed:            11,
		Schemes:         core.AllSchemes,
	}
}

// tenantRequest is one entry of the shared tenant stream.
type tenantRequest struct {
	classA bool
	vms    int
	g      tenant.Guarantee
}

// tenantStream draws the same tenant sequence for every scheme
// (Table 3 parameters, exponentially distributed as in the paper).
func tenantStream(p ComparisonParams, rng *stats.Rand) []tenantRequest {
	slots := p.Racks * p.ServersPerRack * p.SlotsPerServer
	var reqs []tenantRequest
	total := 0
	for total < 3*slots { // more than any scheme can admit
		classA := rng.Float64() < p.ClassAFrac
		vms := int(rng.Exp(float64(p.AvgTenantVMs)))
		if vms < 4 {
			vms = 4
		}
		if vms > 2*p.AvgTenantVMs {
			vms = 2 * p.AvgTenantVMs
		}
		var g tenant.Guarantee
		if classA {
			g = tenant.Guarantee{
				BandwidthBps: clamp(rng.Exp(0.25*gbps), 0.05*gbps, 0.5*gbps),
				BurstBytes:   clamp(rng.Exp(15e3), 3e3, 30e3),
				DelayBound:   1e-3,
				BurstRateBps: 1 * gbps,
			}
		} else {
			g = tenant.Guarantee{
				BandwidthBps: clamp(rng.Exp(2*gbps), 0.5*gbps, 3*gbps),
				BurstBytes:   1.5e3,
				BurstRateBps: 2 * gbps,
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

// TenantStats accumulates one tenant's message outcomes under one
// scheme.
type TenantStats struct {
	ClassA bool
	VMs    int
	// EstimateNs is the tenant's message-latency estimate (Silo's
	// guarantee formula applied to its message size).
	EstimateNs int64
	// LatenciesUs samples message latencies in µs.
	LatenciesUs *stats.Sample
	Messages    int
	MessagesRTO int
}

// RTOFrac returns the fraction of the tenant's messages that suffered
// at least one retransmission timeout (Figure 13's x-axis).
func (t *TenantStats) RTOFrac() float64 {
	if t.Messages == 0 {
		return 0
	}
	return float64(t.MessagesRTO) / float64(t.Messages)
}

// SchemeResult is one scheme's outcome.
type SchemeResult struct {
	Scheme  core.Scheme
	Tenants []*TenantStats
	// ClassALatUs aggregates all class-A message latencies (µs) —
	// Figure 12's distribution.
	ClassALatUs *stats.Sample
	// AdmittedVMs actually placed.
	AdmittedVMs int
	Drops       int64
}

// ClassATenants filters.
func (r SchemeResult) ClassATenants() []*TenantStats {
	var out []*TenantStats
	for _, t := range r.Tenants {
		if t.ClassA {
			out = append(out, t)
		}
	}
	return out
}

// ClassBTenants filters.
func (r SchemeResult) ClassBTenants() []*TenantStats {
	var out []*TenantStats
	for _, t := range r.Tenants {
		if !t.ClassA {
			out = append(out, t)
		}
	}
	return out
}

// OutlierFrac returns the fraction of class-A tenants whose p99
// message latency exceeds `mult` × their estimate (Table 4).
func (r SchemeResult) OutlierFrac(mult float64) float64 {
	tenants := r.ClassATenants()
	if len(tenants) == 0 {
		return 0
	}
	n := 0
	for _, t := range tenants {
		if t.LatenciesUs.Len() == 0 {
			continue
		}
		if t.LatenciesUs.Percentile(99)*1e3 > mult*float64(t.EstimateNs) {
			n++
		}
	}
	return float64(n) / float64(len(tenants))
}

// RTOTenantCDF returns, over class-A tenants, the per-tenant fraction
// of messages with RTOs (Figure 13).
func (r SchemeResult) RTOTenantCDF() *stats.Sample {
	s := stats.NewSample(len(r.Tenants))
	for _, t := range r.ClassATenants() {
		s.Add(100 * t.RTOFrac())
	}
	return s
}

// ClassBNormalizedLatency returns, over class-B tenants, mean message
// latency normalized to the estimate (Figure 14).
func (r SchemeResult) ClassBNormalizedLatency() *stats.Sample {
	s := stats.NewSample(len(r.Tenants))
	for _, t := range r.ClassBTenants() {
		if t.LatenciesUs.Len() == 0 || t.EstimateNs == 0 {
			continue
		}
		s.Add(t.LatenciesUs.Mean() * 1e3 / float64(t.EstimateNs))
	}
	return s
}

// RunComparison runs every scheme over the same tenant stream.
func RunComparison(p ComparisonParams) ([]SchemeResult, error) {
	stream := tenantStream(p, stats.NewRand(p.Seed))
	var out []SchemeResult
	for _, s := range p.Schemes {
		r, err := runScheme(p, s, stream)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// comparisonScenario offers the stream to one scheme: class A runs the
// OLDI pattern with responses a fraction of the burst allowance (the
// paper's Table-1 analysis: low lateness needs the allowance to cover a
// few messages), class B the shuffle; both hoses sit at the backlogged
// fixed point from t=0.
func comparisonScenario(p ComparisonParams, scheme core.Scheme, stream []tenantRequest) Scenario {
	sc := Scenario{
		Topology:  TenGbE(1, p.Racks, p.ServersPerRack, p.SlotsPerServer, p.Oversub, 1),
		Scheme:    scheme,
		Seed:      p.Seed ^ 0xabcdef,
		TargetVMs: int(p.OccupancyTarget * float64(p.Racks*p.ServersPerRack*p.SlotsPerServer)),
		VMBase:    1000,
		VMGap:     10,
		HorizonNs: int64(p.DurationSec * 1e9),
		DrainNs:   3e9, // drain retransmissions
	}
	for i, req := range stream {
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
			t.Hose = Hose{Kind: HoseFairShare, Pattern: workload.AllToOne(req.vms)}
			t.Driver = Driver{Kind: DriverOLDI, MsgBytes: max(int(req.g.BurstBytes/3), 1500), SplitRand: true}
		} else {
			t.Hose = Hose{Kind: HoseFairShare, Pattern: workload.AllToAll(req.vms)}
			t.Driver = Driver{Kind: DriverShuffle, MsgBytes: p.ClassBMsgBytes}
		}
		sc.Tenants = append(sc.Tenants, t)
	}
	return sc
}

func runScheme(p ComparisonParams, scheme core.Scheme, stream []tenantRequest) (SchemeResult, error) {
	run, err := RunScenario(comparisonScenario(p, scheme, stream), Env{})
	if err != nil {
		return SchemeResult{}, err
	}
	res := SchemeResult{Scheme: scheme, ClassALatUs: stats.NewSample(1 << 16), Drops: run.Net.TotalDrops()}
	for _, tr := range run.Tenants {
		g, n, d := tr.Tenant.Spec.Guarantee, tr.Tenant.Spec.VMs, tr.Tenant.Driver
		st := &TenantStats{
			ClassA:      d.Kind == DriverOLDI,
			VMs:         n,
			LatenciesUs: &tr.LatencyUs,
			Messages:    tr.Messages,
			MessagesRTO: tr.MessagesRTO,
		}
		if st.ClassA {
			st.EstimateNs = classAEstimateNs(g, d.MsgBytes)
			for _, v := range tr.LatencyUs.Values() {
				res.ClassALatUs.Add(v)
			}
		} else {
			// Per-flow reserved rate under the hose model: B/(N−1); the
			// estimate is the transfer time at that rate.
			st.EstimateNs = int64(float64(d.MsgBytes) / (g.BandwidthBps / float64(n-1)) * 1e9)
		}
		res.Tenants = append(res.Tenants, st)
		res.AdmittedVMs += n
	}
	return res, nil
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

// RenderComparison formats Figures 12–14 and Table 4.
func RenderComparison(results []SchemeResult) string {
	var b strings.Builder
	b.WriteString("Figure 12 — class-A message latency (µs):\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %8s\n", "scheme", "p50", "p95", "p99", "max", "drops")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8s %10.0f %10.0f %10.0f %10.0f %8d\n", r.Scheme,
			r.ClassALatUs.Percentile(50), r.ClassALatUs.Percentile(95),
			r.ClassALatUs.Percentile(99), r.ClassALatUs.Max(), r.Drops)
	}
	b.WriteString("\nFigure 13 — % of class-A tenants vs % messages with RTOs (p50/p90/max):\n")
	for _, r := range results {
		cdf := r.RTOTenantCDF()
		fmt.Fprintf(&b, "%-8s p50=%.2f%% p90=%.2f%% max=%.2f%%\n", r.Scheme,
			cdf.Percentile(50), cdf.Percentile(90), cdf.Max())
	}
	b.WriteString("\nTable 4 — outlier class-A tenants (%):\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "scheme", "1x", "2x", "8x")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8s %10.1f %10.1f %10.1f\n", r.Scheme,
			100*r.OutlierFrac(1), 100*r.OutlierFrac(2), 100*r.OutlierFrac(8))
	}
	b.WriteString("\nFigure 14 — class-B mean latency / estimate (p10/p50/p90):\n")
	for _, r := range results {
		s := r.ClassBNormalizedLatency()
		fmt.Fprintf(&b, "%-8s p10=%.2f p50=%.2f p90=%.2f\n", r.Scheme,
			s.Percentile(10), s.Percentile(50), s.Percentile(90))
	}
	return b.String()
}
