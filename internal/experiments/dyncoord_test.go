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
	runs, err := RunLines([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	r := MemcachedRow(runs[0]) // p50, p99, p99.9, guarantee, req/s, bulk Gbps
	if r[4] == 0 {
		t.Fatal("no requests completed")
	}
	if r[1] > r[3] {
		t.Errorf("dynamic req1 p99 = %.0f µs exceeds guarantee %.0f µs", r[1], r[3])
	}
	if r[5] < 20 {
		t.Errorf("bulk throughput %.1f Gbps too low", r[5])
	}
}
