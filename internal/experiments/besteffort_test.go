package experiments

import (
	"testing"
)

func TestBestEffortCoexistence(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	runs, err := RunBestEffort(mustScenarios(t, "besteffort"))
	if err != nil {
		t.Fatal(err)
	}
	alone, withBE := runs[0], runs[1]
	aloneP99, withBEP99 := alone.Tenants[0].LatencyUs.Percentile(99), withBE.Tenants[0].LatencyUs.Percentile(99)
	guarantee := guaranteeUs(alone.Tenants[0].Tenant)
	// §4.4: best-effort tenants ride the low 802.1q class, so the
	// guaranteed tenant's tail must be unaffected and stay within its
	// guarantee.
	if withBEP99 > guarantee {
		t.Errorf("guaranteed p99 %.0f µs exceeds guarantee %.0f µs under best-effort load", withBEP99, guarantee)
	}
	if withBEP99 > 3*aloneP99+50 {
		t.Errorf("best-effort load inflated guaranteed p99: %.0f -> %.0f µs", aloneP99, withBEP99)
	}
	// And the best-effort tenant must actually get substantial
	// residual bandwidth (work conservation across classes).
	if gbps := float64(withBE.Tenants[1].BytesReceived) * 8 / (float64(withBE.Scenario.HorizonNs) / 1e9) / 1e9; gbps < 5 {
		t.Errorf("best-effort throughput %.2f Gbps; residual capacity unused", gbps)
	}
	if RenderBestEffort(runs) == "" {
		t.Error("empty render")
	}
}
