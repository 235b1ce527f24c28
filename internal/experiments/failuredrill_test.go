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
	run, err := RunFailureDrill(drill(t))
	if err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	if len(run.Tenants) < 4 {
		t.Fatalf("only %d tenants admitted; drill needs load", len(run.Tenants))
	}
	if len(run.Recoveries) == 0 {
		t.Fatal("fault fired but recovery never ran")
	}
	rep := run.Recoveries[0]
	if len(rep.Affected) == 0 {
		t.Fatal("ToR failure affected no tenants")
	}
	// No silent loss: verdicts cover the affected set exactly.
	if rep.Relocated+rep.Degraded+rep.Evicted != len(rep.Affected) {
		t.Fatalf("verdicts don't cover affected: %+v", rep)
	}
	if run.Net.TotalFaultDrops() == 0 {
		t.Error("switch death dropped nothing — fault not exercised")
	}

	// The drill's rows: ID, verdict, recovery ms, messages, delivered,
	// violated, in-fault, conformance.
	rows := DrillRows(run)
	byID := map[int]int{}
	for i, tr := range run.Tenants {
		byID[tr.Tenant.Spec.ID] = i
	}
	for _, tr := range rep.Affected {
		i, ok := byID[tr.ID]
		if !ok {
			t.Fatalf("affected tenant %d missing from the drill's tenants", tr.ID)
		}
		verdict := run.Tenants[i].Verdict
		if verdict != tr.Verdict.String() || rows[i][1] != drillVerdictCode[verdict] {
			t.Errorf("tenant %d: verdict %q (code %v) != report %q", tr.ID, verdict, rows[i][1], tr.Verdict)
		}
		if tr.Verdict != placement.VerdictEvicted {
			// Survivors of the fault must have completed a message on
			// the new placement, giving a measured recovery latency.
			if recoveryMs := rows[i][2]; recoveryMs < 0 {
				t.Errorf("tenant %d (%s) has no recovery latency", tr.ID, verdict)
			} else if recoveryMs*1e6 < faultDetectNs {
				t.Errorf("tenant %d recovered in %.3fms, before detection (%dns)", tr.ID, recoveryMs, int64(faultDetectNs))
			}
		}
	}
	// Unaffected tenants are never dragged in.
	affected := map[int]bool{}
	for _, tr := range rep.Affected {
		affected[tr.ID] = true
	}
	for _, tr := range run.Tenants {
		if !affected[tr.Tenant.Spec.ID] && tr.Verdict != "ok" {
			t.Errorf("unaffected tenant %d carries verdict %q", tr.Tenant.Spec.ID, tr.Verdict)
		}
	}

	// Degraded-mode accounting: the resync storm and the recovery
	// migrations must have produced violations, and the window tick must
	// have landed them in fault-attributed windows.
	var inFault float64
	for _, row := range rows {
		inFault += row[6]
	}
	if inFault == 0 {
		t.Error("no violations attributed to the outage window; resync storm had no bite")
	}
}

// The window events name the injected fault on outage-window
// violations — the report is actionable, not just a count.
func TestFailureDrillEventsCarryFaultLabel(t *testing.T) {
	run, err := RunScenario(drill(t), Env{})
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
	var renders [2]string
	for i := range renders {
		run, err := RunFailureDrill(drill(t))
		if err != nil {
			t.Fatal(err)
		}
		renders[i] = RenderFailureDrill(run, err)
	}
	if renders[0] != renders[1] {
		t.Fatalf("drill summaries differ across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", renders[0], renders[1])
	}
}

// TestFaultLabels: a window event carries the fault label exactly when
// its window overlaps the outage, from the switch-down event to the
// switch-up event plus the attribution grace. Two violations injected
// into the drill's tenant well before and well after the outage must
// come out unlabeled.
func TestFaultLabels(t *testing.T) {
	sc := drill(t)
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
	wantLabel := fmt.Sprintf("switch-down switch tor0 @%dns", downNs)
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
