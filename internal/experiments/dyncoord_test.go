package experiments

import (
	"testing"
)

// TestDynamicCoordinationMeetsGuarantee validates the EyeQ-style
// dynamic hose loop end to end: even at req1 (guarantee == average
// demand, the paper's hardest configuration), the p99 request latency
// stays within the message-latency guarantee.
func TestDynamicCoordinationMeetsGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	sc := mustScenarios(t, "fig11")[2] // Silo req1
	sc.HorizonNs = 100e6
	rs, err := RunMemcached([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.RequestsCompleted == 0 {
		t.Fatal("no requests completed")
	}
	if got := r.Latencies.Percentile(99); got > r.GuaranteeUs {
		t.Errorf("dynamic req1 p99 = %.0f µs exceeds guarantee %.0f µs", got, r.GuaranteeUs)
	}
	if r.BulkThroughputBps()*8/1e9 < 20 {
		t.Errorf("bulk throughput %.1f Gbps too low", r.BulkThroughputBps()*8/1e9)
	}
}
