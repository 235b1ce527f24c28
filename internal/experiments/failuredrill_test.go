package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/placement"
)

// The end-to-end drill: a ToR dies under admitted load. Every affected
// tenant must end with an explicit verdict, the placement manager's
// invariants must hold afterwards, the recovery latency must be
// measured, and the window tick must attribute the outage-window
// violations to the injected fault event.
func TestFailureDrillToRFailure(t *testing.T) {
	res, err := RunFailureDrill(FailureDrillSeed)
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
			} else if row.RecoveryNs < drillDetectNs {
				t.Errorf("tenant %d recovered in %dns, before detection (%dns)", tr.ID, row.RecoveryNs, int64(drillDetectNs))
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
	// migrations must have produced violations, and the window tick must
	// have landed them in fault-attributed windows.
	var inFault int64
	for _, row := range res.Rows {
		inFault += row.InFault
	}
	if inFault == 0 {
		t.Error("no violations attributed to the outage window; resync storm had no bite")
	}
}

// The window events name the injected fault on outage-window
// violations — the report is actionable, not just a count.
func TestFailureDrillEventsCarryFaultLabel(t *testing.T) {
	run, err := RunScenario(drillScenario(FailureDrillSeed), Env{})
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, ev := range run.Violations {
		if ev.Source == obs.SourceWindow && ev.Fault != "" {
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

// Determinism: the same seed produces byte-identical drill summaries
// on repeated runs — the acceptance bar for a reproducible postmortem.
func TestFailureDrillDeterministic(t *testing.T) {
	a, err := RunFailureDrill(FailureDrillSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFailureDrill(FailureDrillSeed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("drill summaries differ across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.Render(), b.Render())
	}
}

// TestFaultLabels: a window event carries the fault label exactly when
// its window overlaps the outage, from the switch-down event to the
// switch-up event plus the attribution grace. Two violations injected
// into the drill's tenant well before and well after the outage must
// come out unlabeled.
func TestFaultLabels(t *testing.T) {
	sc := drillScenario(FailureDrillSeed)
	run, err := Build(sc, Env{})
	if err != nil {
		t.Fatal(err)
	}
	id := sc.Tenants[0].Spec.ID
	for _, at := range []int64{5_500_000, 50_500_000} {
		run.Net.Sim.At(at, func() { run.Audit.ObserveDelivery(id, -1, -1, at, 5e6) }) // 5 ms: over the bound
	}
	run.Execute(context.Background())
	run.Finish()

	downNs, upNs := int64(-1), int64(-1)
	for _, ev := range run.Injector.Events() {
		switch ev.Kind {
		case faults.KindSwitchDown:
			downNs = ev.TimeNs
		case faults.KindSwitchUp:
			upNs = ev.TimeNs
		}
	}
	if downNs < 0 || upNs < downNs {
		t.Fatalf("fault log lacks the outage: %v", run.Injector.Events())
	}
	wantLabel := fmt.Sprintf("switch-down switch %s @%dns", drillFailSwitch, downNs)
	endNs := upNs + faultGraceNs
	var labeled, unlabeled int
	for _, ev := range run.Violations {
		if ev.Source != obs.SourceWindow {
			continue
		}
		inFault := ev.WindowStartNs <= endNs && downNs < ev.WindowEndNs
		if (ev.Fault != "") != inFault || (inFault && ev.Fault != wantLabel) {
			t.Errorf("tenant %d window [%d,%d] fault=%q, want in fault: %v (%q)",
				ev.Tenant, ev.WindowStartNs, ev.WindowEndNs, ev.Fault, inFault, wantLabel)
		}
		if inFault {
			labeled++
		} else {
			unlabeled++
		}
	}
	if labeled == 0 || unlabeled < 2 {
		t.Errorf("%d labeled and %d unlabeled window events, want some and at least 2", labeled, unlabeled)
	}
}
