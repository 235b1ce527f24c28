package experiments

import (
	"strings"
	"testing"

	"repro/internal/obs/slo"
	"repro/internal/placement"
)

// The end-to-end drill: a ToR dies under admitted load. Every affected
// tenant must end with an explicit verdict, the placement manager's
// invariants must hold afterwards, the recovery latency must be
// measured, and the SLO plane must attribute the outage-window
// violations to the injected fault event.
func TestFailureDrillToRFailure(t *testing.T) {
	p := DefaultFailureDrillParams()
	res, err := RunFailureDrill(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted < 4 {
		t.Fatalf("only %d tenants admitted; drill needs load", res.Admitted)
	}
	if res.Recovery == nil {
		t.Fatal("fault fired but recovery never ran")
	}
	rep := res.Recovery
	if len(rep.Affected) == 0 {
		t.Fatal("ToR failure affected no tenants")
	}
	// No silent loss: verdicts cover the affected set exactly.
	if rep.Relocated+rep.Degraded+rep.Evicted != len(rep.Affected) {
		t.Fatalf("verdicts don't cover affected: %+v", rep)
	}
	if res.InvariantsErr != "" {
		t.Fatalf("invariants after recovery: %s", res.InvariantsErr)
	}
	if res.FaultDrops == 0 {
		t.Error("switch death dropped nothing — fault not exercised")
	}

	rows := map[int]DrillTenantRow{}
	for _, row := range res.Rows {
		rows[row.ID] = row
	}
	for _, tr := range rep.Affected {
		row, ok := rows[tr.ID]
		if !ok {
			t.Fatalf("affected tenant %d missing from drill rows", tr.ID)
		}
		if row.Verdict != tr.Verdict.String() {
			t.Errorf("tenant %d: row verdict %q != report %q", tr.ID, row.Verdict, tr.Verdict)
		}
		if tr.Verdict != placement.VerdictEvicted {
			// Survivors of the fault must have completed a message on
			// the new placement, giving a measured recovery latency.
			if row.RecoveryNs < 0 {
				t.Errorf("tenant %d (%s) has no recovery latency", tr.ID, row.Verdict)
			} else if row.RecoveryNs < p.DetectNs {
				t.Errorf("tenant %d recovered in %dns, before detection (%dns)", tr.ID, row.RecoveryNs, p.DetectNs)
			}
		}
	}
	// Unaffected tenants are never dragged in.
	affected := map[int]bool{}
	for _, tr := range rep.Affected {
		affected[tr.ID] = true
	}
	for _, row := range res.Rows {
		if !affected[row.ID] && row.Verdict != "ok" {
			t.Errorf("unaffected tenant %d carries verdict %q", row.ID, row.Verdict)
		}
	}

	// Degraded-mode accounting: the resync storm and the recovery
	// migrations must have produced violations, and the SLO plane must
	// have landed them in fault-attributed windows.
	var inFault int64
	for _, sr := range res.SLO {
		inFault += sr.ViolatedDuringFault
	}
	if inFault == 0 {
		t.Error("no violations attributed to the outage window; resync storm had no bite")
	}
}

// The SLO event log names the injected fault on outage-window
// violations — the report is actionable, not just a count.
func TestFailureDrillEventsCarryFaultLabel(t *testing.T) {
	res, err := RunFailureDrill(DefaultFailureDrillParams())
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, ev := range res.SLOEvents {
		if ev.Kind == slo.EventWindowViolation && ev.Fault != "" {
			labeled++
			if !strings.Contains(ev.Fault, "tor0") {
				t.Errorf("fault label %q does not name the failed switch", ev.Fault)
			}
		}
	}
	if labeled == 0 {
		t.Fatal("no window-violation event carries the fault label")
	}
}

// Determinism: the same params produce byte-identical drill summaries
// on repeated runs — the acceptance bar for a reproducible postmortem.
func TestFailureDrillDeterministic(t *testing.T) {
	p := DefaultFailureDrillParams()
	a, err := RunFailureDrill(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFailureDrill(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("drill summaries differ across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.Render(), b.Render())
	}
}
