package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/incident"
)

// The ToR-death drill end to end: every guarantee violation the run
// produces must land in exactly one incident, every incident must be
// root-caused to the injected fault, and nothing may remain
// unexplained.
func TestDrillIncidentsRootCauseInjectedFault(t *testing.T) {
	res, err := RunFailureDrill(FailureDrillSeed)
	if err != nil {
		t.Fatalf("drill: %v", err)
	}
	rep := res.Incidents
	if rep == nil {
		t.Fatal("drill produced no incident report")
	}
	if len(rep.Incidents) == 0 {
		t.Fatal("ToR death produced zero incidents")
	}
	if rep.Unexplained != 0 {
		t.Fatalf("%d unexplained incidents:\n%s", rep.Unexplained, rep.Render())
	}
	if rep.BoundBreaches != 0 {
		t.Fatalf("drill flagged bound breaches:\n%s", rep.Render())
	}

	wantLabel := fmt.Sprintf("switch-down switch %s @%dns", drillFailSwitch, int64(drillFaultAtNs))
	for _, inc := range rep.Incidents {
		if inc.Verdict != incident.VerdictInjectedFault {
			t.Errorf("incident #%d verdict %s, want injected-fault (%s)", inc.ID, inc.Verdict, inc.Reason)
		}
		found := false
		for _, f := range inc.Faults {
			if f == wantLabel {
				found = true
			}
		}
		if !found {
			t.Errorf("incident #%d missing fault %q (has %v)", inc.ID, wantLabel, inc.Faults)
		}
		timelineHasFault := false
		for _, e := range inc.Timeline {
			if e.Kind == "fault-down" && strings.Contains(e.Detail, wantLabel) {
				timelineHasFault = true
			}
		}
		if !timelineHasFault {
			t.Errorf("incident #%d timeline has no fault-down entry for %q", inc.ID, wantLabel)
		}
	}

	// Conservation: the incidents partition the violation stream. Every
	// per-packet violation the auditor counted (summed over tenants) is
	// in exactly one incident, and so is every window event's count,
	// which sum to the same total.
	var audited int64
	for _, row := range res.Rows {
		audited += row.Violated
	}
	var inIncidents, inWindows int64
	for _, inc := range rep.Incidents {
		inIncidents += inc.Violations
		inWindows += inc.WindowViolations
	}
	if inIncidents != audited {
		t.Errorf("violation conservation broken: %d in incidents, %d audited", inIncidents, audited)
	}
	if rep.TotalViolations != audited {
		t.Errorf("report total %d != audited %d", rep.TotalViolations, audited)
	}
	if inWindows != audited || rep.WindowViolations != audited {
		t.Errorf("window conservation broken: %d in incidents, %d in report, %d audited",
			inWindows, rep.WindowViolations, audited)
	}
	if audited == 0 {
		t.Error("drill produced zero audited violations — nothing was exercised")
	}
}

// The unpaced Figure-5 tenant, judged against the delay the paced
// system delivers, convicts itself: its own senders' fitted envelopes
// are VIOLATED, so every incident is self-inflicted and names the
// bursting sender VMs. Nothing is unexplained, nothing pages.
func TestFig5UnpacedIncidentsSelfInflicted(t *testing.T) {
	res, err := RunFigure5Sim(Figure5SimParams{
		Scheme:             core.SchemeTCP,
		Incidents:          true,
		AuditDelayBoundSec: 350e-6,
	})
	if err != nil {
		t.Fatalf("fig5 sim: %v", err)
	}
	rep := res.Incidents
	if rep == nil {
		t.Fatal("incidents requested but report is nil")
	}
	if len(rep.Incidents) == 0 {
		t.Fatalf("unpaced run produced zero incidents; audit: %s", res.AuditSummary)
	}
	if rep.TotalViolations == 0 {
		t.Fatalf("unpaced run produced zero violations; audit: %s", res.AuditSummary)
	}
	if rep.Unexplained != 0 {
		t.Fatalf("%d unexplained incidents:\n%s", rep.Unexplained, rep.Render())
	}
	if rep.BoundBreaches != 0 {
		t.Fatalf("self-inflicted overload must not page as bound breach:\n%s", rep.Render())
	}
	for _, inc := range rep.Incidents {
		if inc.Verdict != incident.VerdictSelfInflicted {
			t.Errorf("incident #%d verdict %s, want self-inflicted (%s)", inc.ID, inc.Verdict, inc.Reason)
		}
		if len(inc.CulpritVMs) == 0 {
			t.Errorf("incident #%d names no culprit VMs", inc.ID)
		}
		if len(inc.SrcVMs) == 0 {
			t.Errorf("incident #%d has no source VMs in its blast radius", inc.ID)
		}
		// The verdict names the envelope-breaking senders; the subset of
		// them whose packets actually landed over the bound must all be
		// convicted (culprits can exceed srcs: every unpaced sender
		// contributed to the queue, not only the ones delivered last).
		culprits := map[int]bool{}
		for _, vm := range inc.CulpritVMs {
			culprits[vm] = true
		}
		for _, vm := range inc.SrcVMs {
			if !culprits[vm] {
				t.Errorf("incident #%d: violating packets arrived from vm%d but it is not convicted (culprits %v)",
					inc.ID, vm, inc.CulpritVMs)
			}
		}
		if !strings.Contains(inc.Reason, "broke their own arrival envelope") {
			t.Errorf("incident #%d reason %q does not explain the self-inflicted verdict", inc.ID, inc.Reason)
		}
	}
}

// Control for the tightened audit bound: the paced run judged against
// the very same 350 µs stays perfectly clean — the bound separates the
// schemes, it is not doctored against Silo.
func TestFig5PacedCleanUnderTightenedBound(t *testing.T) {
	res, err := RunFigure5Sim(Figure5SimParams{
		Scheme:             core.SchemeSilo,
		Incidents:          true,
		AuditDelayBoundSec: 350e-6,
	})
	if err != nil {
		t.Fatalf("fig5 sim: %v", err)
	}
	rep := res.Incidents
	if rep == nil {
		t.Fatal("incidents requested but report is nil")
	}
	if len(rep.Incidents) != 0 || rep.TotalViolations != 0 {
		t.Fatalf("paced run not clean under the tightened bound:\n%s\naudit: %s",
			rep.Render(), res.AuditSummary)
	}
}
