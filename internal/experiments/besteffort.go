package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// BestEffortParams configures the §4.4 experiment: a guaranteed
// (class-A) tenant shares the cluster with a best-effort tenant that
// holds no guarantees and rides the low 802.1q priority. Silo's claim:
// the best-effort tenant soaks up residual capacity without disturbing
// the guaranteed tenant's latency.
type BestEffortParams struct {
	Racks, ServersPerRack int
	DurationSec           float64
	GuaranteedVMs         int
	BestEffortVMs         int
	Seed                  uint64
}

// DefaultBestEffortParams returns a rack-scale configuration.
func DefaultBestEffortParams() BestEffortParams {
	return BestEffortParams{
		Racks:          2,
		ServersPerRack: 5,
		DurationSec:    0.05,
		GuaranteedVMs:  9,
		BestEffortVMs:  9,
		Seed:           13,
	}
}

// BestEffortResult reports both tenants' outcomes with and without the
// best-effort tenant present.
type BestEffortResult struct {
	// GuaranteedP99AloneUs / WithBEUs: the guaranteed tenant's p99
	// message latency without and with best-effort load.
	GuaranteedP99AloneUs  float64
	GuaranteedP99WithBEUs float64
	// GuaranteeUs is the tenant's message-latency guarantee.
	GuaranteeUs float64
	// BestEffortGbps is the best-effort tenant's achieved throughput.
	BestEffortGbps float64
	// Drops across switch ports (compliant traffic must see zero drops
	// at high priority; best-effort may lose packets).
	HighPrioDrops int64
}

// RunBestEffort runs the coexistence experiment twice (guaranteed
// tenant alone, then with best-effort background) and compares.
func RunBestEffort(p BestEffortParams) (BestEffortResult, error) {
	alone, err := RunScenario(bestEffortScenario(p, false), Env{})
	if err != nil {
		return BestEffortResult{}, err
	}
	withBE, err := RunScenario(bestEffortScenario(p, true), Env{})
	if err != nil {
		return BestEffortResult{}, err
	}
	for _, run := range []*Run{alone, withBE} {
		if len(run.Rejected) > 0 {
			return BestEffortResult{}, run.Rejected[0]
		}
	}
	return BestEffortResult{
		GuaranteedP99AloneUs:  alone.Tenants[0].LatencyUs.Percentile(99),
		GuaranteedP99WithBEUs: withBE.Tenants[0].LatencyUs.Percentile(99),
		GuaranteeUs:           bestEffortGuarantee().MessageLatencyBound(5000) * 1e6,
		BestEffortGbps:        float64(withBE.Tenants[1].BytesReceived) * 8 / p.DurationSec / 1e9,
	}, nil
}

func bestEffortGuarantee() tenant.Guarantee {
	return tenant.Guarantee{
		BandwidthBps: 0.25 * gbps,
		BurstBytes:   15e3,
		DelayBound:   1e-3,
		BurstRateBps: 1 * gbps,
	}
}

// bestEffortScenario is a guaranteed tenant sending sparse all-to-one
// bursts (the class-A pattern) and, with it or not, a best-effort
// tenant in an all-out shuffle, as greedy as TCP allows: admitted on
// slots alone, unpaced, low priority, a 10 ms minimum RTO.
func bestEffortScenario(p BestEffortParams, withBE bool) Scenario {
	sc := Scenario{
		Topology: TenGbE(1, p.Racks, p.ServersPerRack, 4, 5, 1),
		Scheme:   core.SchemeSilo,
		Seed:     p.Seed,
		Tenants: []Tenant{{
			Spec: tenant.Spec{ID: 1, Name: "guaranteed", VMs: p.GuaranteedVMs,
				Guarantee: bestEffortGuarantee(), FaultDomains: 2},
			VMBase: 1000,
			Hose:   Hose{Kind: HoseFairShare, Pattern: workload.AllToOne(p.GuaranteedVMs)},
			Driver: Driver{Kind: DriverOLDI, MsgBytes: 5000},
		}},
		HorizonNs: int64(p.DurationSec * 1e9),
		DrainNs:   3e9,
	}
	if withBE {
		sc.Tenants = append(sc.Tenants, Tenant{
			Spec: tenant.Spec{ID: 2, Name: "best-effort", VMs: p.BestEffortVMs,
				Class: tenant.ClassBestEffort, FaultDomains: 2},
			VMBase:   2000,
			MinRTONs: 10_000_000,
			Driver:   Driver{Kind: DriverShuffle, MsgBytes: 1 << 20},
		})
	}
	return sc
}

// Render formats the coexistence result.
func (r BestEffortResult) Render() string {
	return fmt.Sprintf(
		"guaranteed tenant p99: alone=%.0fµs  with best-effort=%.0fµs  (guarantee %.0fµs)\n"+
			"best-effort throughput on residual capacity: %.2f Gbps\n",
		r.GuaranteedP99AloneUs, r.GuaranteedP99WithBEUs, r.GuaranteeUs, r.BestEffortGbps)
}
