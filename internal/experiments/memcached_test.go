package experiments

import (
	"strings"
	"testing"
)

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
	p := DefaultMemcachedParams()
	p.DurationSec = 0.002
	r, err := RunMemcachedScenario(p, MemcachedScenario{Name: "mini", WithBulk: false, GuaranteeA: &a, GuaranteeB: &a})
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
