package experiments

import "fmt"

// RunBestEffort runs the §4.4 experiment's two lines
// (scenarios/besteffort.json): a guaranteed (class-A) tenant alone, then
// sharing the cluster with a best-effort tenant that holds no
// guarantees and rides the low 802.1q priority. It refuses a line
// whose tenant admission control rejected. Silo's claim: the
// best-effort tenant soaks up residual capacity without disturbing the
// guaranteed tenant's latency.
//
// It runs at rack scale: two racks of five servers, nine VMs in each
// tenant. The guaranteed tenant sends sparse all-to-one 5 KB bursts
// (the class-A pattern) under {0.25 Gbps, 15 KB, 1 ms, 1 Gbps}; the
// best-effort tenant runs an all-out shuffle of 1 MB messages, as
// greedy as TCP allows: admitted on slots alone, unpaced, low priority,
// a 10 ms minimum RTO.
func RunBestEffort(lines []Scenario) ([]*Run, error) {
	runs, err := RunLines(lines)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		if len(run.Rejected) > 0 {
			return nil, run.Rejected[0]
		}
	}
	return runs, nil
}

// RenderBestEffort compares the two runs: the guaranteed tenant's p99
// message latency alone and beside the best-effort tenant, against its
// guarantee, and the best-effort tenant's throughput.
func RenderBestEffort(runs []*Run) string {
	alone, withBE := runs[0], runs[1]
	return fmt.Sprintf(
		"guaranteed tenant p99: alone=%.0fµs  with best-effort=%.0fµs  (guarantee %.0fµs)\n"+
			"best-effort throughput on residual capacity: %.2f Gbps\n",
		alone.Tenants[0].LatencyUs.Percentile(99), withBE.Tenants[0].LatencyUs.Percentile(99),
		guaranteeUs(alone.Tenants[0].Tenant),
		float64(withBE.Tenants[1].BytesReceived)*8/(float64(withBE.Scenario.HorizonNs)/1e9)/1e9)
}

// guaranteeUs is the tenant's message-latency guarantee for its
// driver's messages, in µs.
func guaranteeUs(t Tenant) float64 {
	return t.Spec.Guarantee.MessageLatencyBound(float64(t.Driver.MsgBytes)) * 1e6
}
