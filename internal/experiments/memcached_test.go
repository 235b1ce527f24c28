package experiments

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestCrossServerAllToAll(t *testing.T) {
	// 6 VMs, 3 per server: pairs within a server are excluded.
	pat := crossServerAllToAll(6, 3)
	for src, dsts := range pat {
		for _, d := range dsts {
			if src/3 == d/3 {
				t.Errorf("same-server pair %d->%d included", src, d)
			}
		}
		if len(dsts) != 3 {
			t.Errorf("VM %d has %d cross-server peers, want 3", src, len(dsts))
		}
	}
	if pat.Edges() != 18 {
		t.Errorf("edges = %d, want 18", pat.Edges())
	}
}

func TestFigure11ScenarioList(t *testing.T) {
	scs := Figure11Scenarios()
	if len(scs) != 5 {
		t.Fatalf("scenarios = %d, want 5", len(scs))
	}
	if scs[0].WithBulk || scs[0].GuaranteeA != nil {
		t.Error("scenario 0 should be idle TCP")
	}
	if !scs[1].WithBulk || scs[1].GuaranteeA != nil {
		t.Error("scenario 1 should be contended TCP")
	}
	seen := map[float64]bool{}
	for _, sc := range scs[2:] {
		if sc.GuaranteeA == nil || sc.GuaranteeB == nil || !sc.WithBulk {
			t.Errorf("silo scenario %q malformed", sc.Name)
			continue
		}
		if seen[sc.GuaranteeA.BandwidthBps] {
			t.Error("duplicate req configuration (loop-variable capture?)")
		}
		seen[sc.GuaranteeA.BandwidthBps] = true
	}
	if len(seen) != 3 {
		t.Errorf("distinct req configs = %d, want 3", len(seen))
	}
}

func TestMemcachedResultHelpers(t *testing.T) {
	r := MemcachedResult{RequestsCompleted: 500, BulkBytes: 1e9, SimSeconds: 0.5}
	if got := r.MemcachedThroughputRps(); got != 1000 {
		t.Errorf("rps = %v", got)
	}
	if got := r.BulkThroughputBps(); got != 2e9 {
		t.Errorf("bulk = %v", got)
	}
	zero := MemcachedResult{}
	if zero.MemcachedThroughputRps() != 0 || zero.BulkThroughputBps() != 0 {
		t.Error("zero-duration result should report 0")
	}
}

func TestRenderMemcachedIncludesGuarantee(t *testing.T) {
	a, _ := Table2Guarantees(1)
	r, err := RunMemcachedScenario(MemcachedParams{
		Servers: 2, VMsPerTenantPerServer: 2, DurationSec: 0.002,
		TargetABps: 50 * units.Mbps, BulkMsgBytes: 1 << 18, Seed: 1,
	}, MemcachedScenario{Name: "mini", WithBulk: false, GuaranteeA: &a, GuaranteeB: &a})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderMemcached([]MemcachedResult{r})
	if !strings.Contains(out, "mini") {
		t.Error("render missing scenario name")
	}
	if r.GuaranteeUs == 0 {
		t.Error("Silo scenario should compute a guarantee")
	}
}
