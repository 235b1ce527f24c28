package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// BurstStressParams configures the synchronized-burst stress test —
// the runtime demonstration of Figure 5's principle and the mechanism
// behind Okto+'s Table-4 outliers: placement that guarantees
// bandwidth but ignores bursts admits tenant sets whose simultaneous
// (allowed!) bursts overflow switch buffers. Silo's queuing
// constraint instead rejects tenants it cannot absorb, and the ones
// it admits never lose a packet.
type BurstStressParams struct {
	// Tenants offered for admission; each has Senders+1 VMs, the
	// receiver pinned by fault domains to spread across servers.
	Tenants int
	// Senders per tenant, each bursting BurstBytes simultaneously at
	// the worst possible moment.
	Senders    int
	BurstBytes float64
	// BandwidthBps per VM (modest: bandwidth-only admission accepts
	// everything).
	BandwidthBps float64
	Seed         uint64
}

// DefaultBurstStressParams sizes the stress so that bandwidth-only
// admission accepts every tenant while the combined worst-case burst
// is ~3x the port buffer.
func DefaultBurstStressParams() BurstStressParams {
	return BurstStressParams{
		Tenants:      8,
		Senders:      3,
		BurstBytes:   30e3,
		BandwidthBps: 0.4 * gbps,
		Seed:         17,
	}
}

// BurstStressResult compares the two schemes under the same offered
// tenant stream.
type BurstStressResult struct {
	Scheme       core.Scheme
	Admitted     int
	Offered      int
	Drops        int64
	MessagesLate int
	Messages     int
	P99LatencyUs float64
	GuaranteeUs  float64
	WorstBoundOK bool
}

// RunBurstStress admits tenants with the scheme's placer and fires
// every admitted tenant's senders simultaneously at t=0 — the
// synchronized worst case the placement must have budgeted for.
func RunBurstStress(p BurstStressParams, scheme core.Scheme) (BurstStressResult, error) {
	g := tenant.Guarantee{
		BandwidthBps: p.BandwidthBps,
		BurstBytes:   p.BurstBytes,
		DelayBound:   1e-3,
		BurstRateBps: 10 * gbps,
	}
	sc := Scenario{
		Topology: TenGbE(1, 1, 4, 8, 1, 1),
		Scheme:   scheme,
		VMBase:   1000,
		VMGap:    4,
		DrainNs:  10e9,
	}
	for i := 0; i < p.Tenants; i++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Spec: tenant.Spec{
				ID:           i + 1,
				Name:         fmt.Sprintf("burst-%d", i+1),
				VMs:          p.Senders + 1,
				Guarantee:    g,
				FaultDomains: p.Senders + 1, // one VM per server: maximal fan-in
			},
			// Receiver is VM 0; static fair share (all senders always
			// burst together here).
			Hose:   Hose{Kind: HoseFairShare, Pattern: workload.AllToOne(p.Senders + 1)},
			Driver: Driver{Kind: DriverBurst, MsgBytes: int(p.BurstBytes)},
		})
	}
	run, err := RunScenario(sc, Env{})
	if err != nil {
		return BurstStressResult{}, err
	}
	res := BurstStressResult{
		Scheme:      scheme,
		Offered:     p.Tenants,
		Admitted:    len(run.Tenants),
		Drops:       run.Net.TotalDrops(),
		GuaranteeUs: g.MessageLatencyBound(p.BurstBytes) * 1e6,
	}
	lat := stats.NewSample(256)
	for _, tr := range run.Tenants {
		res.Messages += tr.Messages
		lat.AddAll(tr.LatencyUs.Values())
	}
	res.P99LatencyUs = lat.Percentile(99)
	res.MessagesLate = int(float64(lat.Len()) * lat.FractionAbove(res.GuaranteeUs))
	res.WorstBoundOK = lat.Len() == res.Messages && lat.Max() <= res.GuaranteeUs
	return res, nil
}

// RunBurstStressComparison runs Silo and Okto+ over the same stress.
func RunBurstStressComparison(p BurstStressParams) ([]BurstStressResult, error) {
	var out []BurstStressResult
	for _, s := range []core.Scheme{core.SchemeSilo, core.SchemeOktoPlus} {
		r, err := RunBurstStress(p, s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderBurstStress formats the comparison.
func RenderBurstStress(rs []BurstStressResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s %10s %12s %14s %10s\n",
		"scheme", "admitted", "drops", "late msgs", "p99 (µs)", "guarantee(µs)", "all OK")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-8s %6d/%-3d %8d %10d %12.0f %14.0f %10v\n",
			r.Scheme, r.Admitted, r.Offered, r.Drops, r.MessagesLate,
			r.P99LatencyUs, r.GuaranteeUs, r.WorstBoundOK)
	}
	return b.String()
}
