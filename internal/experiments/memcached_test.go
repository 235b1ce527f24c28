package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFigure11ScenarioList(t *testing.T) {
	scs := mustScenarios(t, "fig11")
	if len(scs) != 5 {
		t.Fatalf("scenarios = %d, want 5", len(scs))
	}
	if len(scs[0].Tenants) != 1 || scs[0].Scheme != core.SchemeTCP {
		t.Error("scenario 0 should be idle TCP")
	}
	if len(scs[1].Tenants) != 2 || scs[1].Scheme != core.SchemeTCP {
		t.Error("scenario 1 should be contended TCP")
	}
	seen := map[float64]bool{}
	for _, sc := range scs[2:] {
		if sc.Scheme != core.SchemeSilo || len(sc.Tenants) != 2 {
			t.Errorf("silo scenario %q malformed", sc.Name)
			continue
		}
		seen[sc.Tenants[0].Spec.Guarantee.BandwidthBps] = true
	}
	if len(seen) != 3 {
		t.Errorf("distinct req configs = %d, want 3", len(seen))
	}
}

func TestRenderMemcachedIncludesGuarantee(t *testing.T) {
	sc := mustScenarios(t, "fig11")[2] // Silo req1
	sc.Name, sc.Tenants, sc.HorizonNs = "mini", sc.Tenants[:1], 2e6
	runs, err := RunLines([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderMemcached(runs)
	if !strings.Contains(out, "mini") {
		t.Error("render missing scenario name")
	}
	if MemcachedRow(runs[0])[3] == 0 {
		t.Error("Silo scenario should compute a guarantee")
	}
}
