package experiments

import (
	"repro/internal/core"
	"testing"
)

// TestBurstStress is the runtime demonstration of Figure 5's principle
// (and the mechanism behind Okto+'s Table-4 outliers): burst-blind
// placement admits tenant sets whose simultaneous bursts overflow
// buffers; Silo admits fewer tenants but never violates a guarantee.
func TestBurstStress(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level simulation")
	}
	rs, err := RunLines(mustScenarios(t, "burststress"))
	if err != nil {
		t.Fatal(err)
	}
	silo, okto := rs[0], rs[1]
	if silo.Scenario.Scheme != core.SchemeSilo || okto.Scenario.Scheme != core.SchemeOktoPlus {
		t.Fatal("unexpected scheme order")
	}
	// Silo: strictly fewer tenants, zero drops, every message within
	// the guarantee.
	if len(silo.Tenants) >= len(okto.Tenants) {
		t.Errorf("Silo admitted %d >= Okto+ %d; burst constraint not binding", len(silo.Tenants), len(okto.Tenants))
	}
	if len(silo.Tenants) == 0 {
		t.Error("Silo admitted nothing")
	}
	if _, p99, _, allOK := burstOutcome(silo); silo.Net.TotalDrops() != 0 || !allOK {
		t.Errorf("Silo violated its guarantee: drops=%d boundOK=%v p99=%.0fµs", silo.Net.TotalDrops(), allOK, p99)
	}
	// Okto+: admits everyone, overflows, messages late.
	if okto.Net.TotalDrops() == 0 {
		t.Error("Okto+ synchronized bursts should overflow the buffer")
	}
	if late, _, _, _ := burstOutcome(okto); late == 0 {
		t.Error("Okto+ should have late messages")
	}
	if RenderBurstStress(rs) == "" {
		t.Error("empty render")
	}
}
