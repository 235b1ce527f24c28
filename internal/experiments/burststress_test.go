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
	rs, err := RunBurstStressComparison(DefaultBurstStressParams())
	if err != nil {
		t.Fatal(err)
	}
	silo, okto := rs[0], rs[1]
	if silo.Scheme != core.SchemeSilo || okto.Scheme != core.SchemeOktoPlus {
		t.Fatal("unexpected scheme order")
	}
	// Silo: strictly fewer tenants, zero drops, every message within
	// the guarantee.
	if silo.Admitted >= okto.Admitted {
		t.Errorf("Silo admitted %d >= Okto+ %d; burst constraint not binding", silo.Admitted, okto.Admitted)
	}
	if silo.Admitted == 0 {
		t.Error("Silo admitted nothing")
	}
	if silo.Drops != 0 || !silo.WorstBoundOK {
		t.Errorf("Silo violated its guarantee: drops=%d boundOK=%v p99=%.0fµs",
			silo.Drops, silo.WorstBoundOK, silo.P99LatencyUs)
	}
	// Okto+: admits everyone, overflows, messages late.
	if okto.Drops == 0 {
		t.Error("Okto+ synchronized bursts should overflow the buffer")
	}
	if okto.MessagesLate == 0 {
		t.Error("Okto+ should have late messages")
	}
	if RenderBurstStress(rs) == "" {
		t.Error("empty render")
	}
}
