package experiments

import "fmt"

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
}

// RunBestEffort runs the §4.4 experiment's two lines
// (scenarios/besteffort.json): a guaranteed (class-A) tenant alone, then
// sharing the cluster with a best-effort tenant that holds no
// guarantees and rides the low 802.1q priority, and compares. Silo's
// claim: the best-effort tenant soaks up residual capacity without
// disturbing the guaranteed tenant's latency.
//
// It runs at rack scale: two racks of five servers, nine VMs in each
// tenant. The guaranteed tenant sends sparse all-to-one 5 KB bursts
// (the class-A pattern) under {0.25 Gbps, 15 KB, 1 ms, 1 Gbps}; the
// best-effort tenant runs an all-out shuffle of 1 MB messages, as
// greedy as TCP allows: admitted on slots alone, unpaced, low priority,
// a 10 ms minimum RTO.
func RunBestEffort(lines []Scenario) (BestEffortResult, error) {
	var runs []*Run
	for _, sc := range lines {
		run, err := RunScenario(sc, Env{})
		if err != nil {
			return BestEffortResult{}, err
		}
		if len(run.Rejected) > 0 {
			return BestEffortResult{}, run.Rejected[0]
		}
		runs = append(runs, run)
	}
	alone, withBE := runs[0], runs[1]
	g := alone.Tenants[0].Tenant
	return BestEffortResult{
		GuaranteedP99AloneUs:  alone.Tenants[0].LatencyUs.Percentile(99),
		GuaranteedP99WithBEUs: withBE.Tenants[0].LatencyUs.Percentile(99),
		GuaranteeUs:           g.Spec.Guarantee.MessageLatencyBound(float64(g.Driver.MsgBytes)) * 1e6,
		BestEffortGbps:        float64(withBE.Tenants[1].BytesReceived) * 8 / (float64(withBE.Scenario.HorizonNs) / 1e9) / 1e9,
	}, nil
}

// Render formats the coexistence result.
func (r BestEffortResult) Render() string {
	return fmt.Sprintf(
		"guaranteed tenant p99: alone=%.0fµs  with best-effort=%.0fµs  (guarantee %.0fµs)\n"+
			"best-effort throughput on residual capacity: %.2f Gbps\n",
		r.GuaranteedP99AloneUs, r.GuaranteedP99WithBEUs, r.GuaranteeUs, r.BestEffortGbps)
}
