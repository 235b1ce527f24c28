package experiments

import (
	"testing"
)

func TestBestEffortCoexistence(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	r, err := RunBestEffort(mustScenarios(t, "besteffort"))
	if err != nil {
		t.Fatal(err)
	}
	// §4.4: best-effort tenants ride the low 802.1q class, so the
	// guaranteed tenant's tail must be unaffected and stay within its
	// guarantee.
	if r.GuaranteedP99WithBEUs > r.GuaranteeUs {
		t.Errorf("guaranteed p99 %.0f µs exceeds guarantee %.0f µs under best-effort load",
			r.GuaranteedP99WithBEUs, r.GuaranteeUs)
	}
	if r.GuaranteedP99WithBEUs > 3*r.GuaranteedP99AloneUs+50 {
		t.Errorf("best-effort load inflated guaranteed p99: %.0f -> %.0f µs",
			r.GuaranteedP99AloneUs, r.GuaranteedP99WithBEUs)
	}
	// And the best-effort tenant must actually get substantial
	// residual bandwidth (work conservation across classes).
	if r.BestEffortGbps < 5 {
		t.Errorf("best-effort throughput %.2f Gbps; residual capacity unused", r.BestEffortGbps)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}
