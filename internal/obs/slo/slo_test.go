package slo

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

const ms = int64(1e6)

// drive closes one window: good packets inside the bound, bad packets
// over it.
func drive(a *obs.GuaranteeAuditor, tenant int, good, bad int) {
	for i := 0; i < good; i++ {
		a.ObserveDelay(tenant, 100_000) // 100µs, inside a 1ms bound
	}
	for i := 0; i < bad; i++ {
		a.ObserveDelay(tenant, 2*ms) // 2ms, over a 1ms bound
	}
}

func newRecorder(t *testing.T) (*obs.GuaranteeAuditor, *Recorder) {
	t.Helper()
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(7, 1e9, 15e3, 1e-3)  // 1ms bound: the SLO subject
	a.Admit(8, 1e9, 15e3, 10e-3) // 10ms bound: innocent bystander
	a.Admit(9, 1e9, 15e3, 0)     // no bound: not an SLO subject
	return a, NewRecorder(a, ms)
}

// TestBurnAlertNamesTenantAndCulprit is the acceptance test: an
// induced d-violation produces a burn-rate alert naming the right
// tenant and the culprit port.
func TestBurnAlertNamesTenantAndCulprit(t *testing.T) {
	a, rec := newRecorder(t)

	// The windows up to the violations blame port 42, the clean ones
	// after them port 43; each culprit's queue is its window's close in
	// µs, so an event shows whose culprit it carries.
	now := int64(0)
	closeWindow := func(good, bad int, port int32) {
		drive(a, 7, good, bad)
		drive(a, 8, 100, 0) // tenant 8 always clean
		now += ms
		rec.Close(now, port, now/1000)
	}

	for i := 0; i < 5; i++ {
		closeWindow(100, 0, 42) // clean warmup
	}
	if evs := rec.Evaluate(nil).Events; len(evs) != 0 {
		t.Fatalf("clean warmup produced events: %+v", evs)
	}

	// Induce violations: 30% of tenant 7's packets over the bound.
	// Window burn = 0.3/0.001 = 300, far over both thresholds.
	for i := 0; i < 3; i++ {
		closeWindow(70, 30, 42)
	}

	evs := rec.Evaluate(nil).Events
	var violation, fastStart, slowStart *Event
	for i := range evs {
		ev := &evs[i]
		if ev.Tenant == 8 || ev.Tenant == 9 {
			t.Fatalf("event for innocent tenant: %+v", *ev)
		}
		switch ev.Kind {
		case EventWindowViolation:
			if violation == nil {
				violation = ev
			}
		case EventFastBurnStart:
			fastStart = ev
		case EventSlowBurnStart:
			slowStart = ev
		}
	}
	if violation == nil || violation.Tenant != 7 {
		t.Fatalf("no window-violation event for tenant 7; events: %+v", evs)
	}
	if violation.CulpritPort != 42 || violation.CulpritQueueNs != violation.WindowEndNs/1000 {
		t.Errorf("violation culprit = port %d (+%dns), want port 42 (+%dns)",
			violation.CulpritPort, violation.CulpritQueueNs, violation.WindowEndNs/1000)
	}
	if fastStart == nil {
		t.Fatal("fast burn alert never fired")
	}
	if fastStart.Tenant != 7 {
		t.Errorf("fast alert tenant = %d, want 7", fastStart.Tenant)
	}
	if fastStart.CulpritPort != 42 {
		t.Errorf("fast alert culprit = port %d, want 42", fastStart.CulpritPort)
	}
	if fastStart.BurnRate < fastThreshold {
		t.Errorf("fast alert burn = %v, want >= %v", fastStart.BurnRate, fastThreshold)
	}
	if slowStart == nil || slowStart.Tenant != 7 {
		t.Errorf("slow burn alert missing or mis-tenanted: %+v", slowStart)
	}

	// Rendered event names the culprit port.
	ports := make([]obs.PortMeta, 43)
	ports[42] = obs.PortMeta{Name: "tor0->host3"}
	if s := fastStart.Render(ports); !strings.Contains(s, "tenant=7") || !strings.Contains(s, "tor0->host3") {
		t.Errorf("rendered alert missing tenant/culprit: %q", s)
	}

	// Recovery: clean windows age the violations out of the fast
	// lookback (12 windows) and the alert ends.
	for i := 0; i < 15; i++ {
		closeWindow(100, 0, 43)
	}
	res := rec.Evaluate(nil)
	var fastEnd *Event
	for i, ev := range res.Events {
		if ev.Kind == EventFastBurnEnd && ev.Tenant == 7 {
			fastEnd = &res.Events[i]
		}
	}
	if fastEnd == nil {
		t.Fatal("fast burn alert never ended after recovery")
	}
	// The end fires in a clean window and still names that window's
	// culprit.
	if fastEnd.Violated != 0 || fastEnd.CulpritPort != 43 || fastEnd.CulpritQueueNs != fastEnd.WindowEndNs/1000 {
		t.Errorf("fast burn end: violated=%d culprit port %d (+%dns), want 0 and port 43 (+%dns)",
			fastEnd.Violated, fastEnd.CulpritPort, fastEnd.CulpritQueueNs, fastEnd.WindowEndNs/1000)
	}

	// Reports: tenant 7 burnt budget, tenant 8 pristine.
	reports := res.Reports
	if len(reports) != 2 {
		t.Fatalf("reports = %d tenants, want 2 (tenant 9 has no bound)", len(reports))
	}
	r7, r8 := reports[0], reports[1]
	if r7.ID != 7 || r8.ID != 8 {
		t.Fatalf("report order: %+v", reports)
	}
	if r7.Violated != 90 || r7.FastAlerts != 1 {
		t.Errorf("tenant 7 report: violated=%d fastAlerts=%d, want 90/1", r7.Violated, r7.FastAlerts)
	}
	if r7.Conformance >= 1 || r7.BudgetBurntPct <= 100 {
		t.Errorf("tenant 7 conformance=%v budget=%v%%", r7.Conformance, r7.BudgetBurntPct)
	}
	if r8.Violated != 0 || r8.Conformance != 1 || r8.FastAlerts != 0 {
		t.Errorf("tenant 8 should be pristine: %+v", r8)
	}
	if r7.WorstViolated != 30 {
		t.Errorf("tenant 7 worst window violated=%d, want 30", r7.WorstViolated)
	}

	table := res.RenderReport()
	if !strings.Contains(table, "SLO report") || !strings.Contains(table, "99.9") {
		t.Errorf("report table malformed: %q", table)
	}
	if strings.Contains(table, "FIRING") {
		t.Errorf("alerts ended, table should not show FIRING: %q", table)
	}
}

func TestMidRunAdmission(t *testing.T) {
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(1, 1e9, 15e3, 1e-3)
	rec := NewRecorder(a, ms)

	drive(a, 1, 10, 0)
	rec.Close(ms, -1, 0)

	// Tenant admitted after the first window.
	a.Admit(2, 1e9, 15e3, 1e-3)
	drive(a, 1, 10, 0)
	drive(a, 2, 5, 1)
	rec.Close(2*ms, -1, 0)

	res := rec.Evaluate(nil)
	w2 := res.Points(2)
	if len(w2) != 2 {
		t.Fatalf("tenant 2 windows = %d, want 2", len(w2))
	}
	if w2[0].Delivered != 0 || w2[1].Delivered != 6 || w2[1].Violated != 1 {
		t.Errorf("tenant 2 windows = %+v", w2)
	}
	// Events carry CulpritPort -1 when the close named none.
	for _, ev := range res.Events {
		if ev.CulpritPort != -1 {
			t.Errorf("no culprit but culprit = %d", ev.CulpritPort)
		}
	}
}

// TestPointsKeepLastWindows: Points returns the trailing 512 windows,
// while the reports cover every window.
func TestPointsKeepLastWindows(t *testing.T) {
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(1, 1e9, 15e3, 1e-3)
	rec := NewRecorder(a, ms)
	const n = pointsKept + 88
	for i := int64(1); i <= n; i++ {
		drive(a, 1, 1, 0)
		rec.Close(i*ms, -1, 0)
	}
	res := rec.Evaluate(nil)
	pts := res.Points(1)
	if len(pts) != pointsKept || pts[0].StartNs != 88*ms || pts[len(pts)-1].EndNs != n*ms {
		t.Errorf("points: %d from %d to %d, want %d from %d to %d",
			len(pts), pts[0].StartNs, pts[len(pts)-1].EndNs, pointsKept, 88*ms, n*ms)
	}
	if r := res.Reports[0]; r.Windows != n || r.Delivered != n {
		t.Errorf("report windows=%d delivered=%d, want %d/%d", r.Windows, r.Delivered, n, n)
	}
	if res.Points(2) != nil {
		t.Error("points for an untracked tenant")
	}
}

// TestFaultLabels: windows the fault lookup matches label their events
// and count their violations as in-fault.
func TestFaultLabels(t *testing.T) {
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(1, 1e9, 15e3, 1e-3)
	rec := NewRecorder(a, ms)
	for i := int64(1); i <= 4; i++ {
		drive(a, 1, 10, 1)
		rec.Close(i*ms, -1, 0)
	}
	res := rec.Evaluate(func(sinceNs, untilNs int64) (string, bool) {
		return "link 3 down", sinceNs >= ms && untilNs <= 3*ms
	})
	var labeled int
	for _, ev := range res.Events {
		inFault := ev.WindowStartNs >= ms && ev.WindowEndNs <= 3*ms
		if (ev.Fault != "") != inFault || (inFault && ev.Fault != "link 3 down") {
			t.Errorf("%s over [%d,%d] fault=%q", ev.Kind, ev.WindowStartNs, ev.WindowEndNs, ev.Fault)
		}
		if ev.Kind == EventWindowViolation && inFault {
			labeled++
		}
	}
	if r := res.Reports[0]; labeled != 2 || r.Violated != 4 || r.ViolatedDuringFault != 2 {
		t.Errorf("labeled=%d violated=%d in-fault=%d, want 2/4/2", labeled, r.Violated, r.ViolatedDuringFault)
	}
}

func TestRecorderWithoutAuditor(t *testing.T) {
	rec := NewRecorder(nil, ms)
	rec.Close(ms, 3, 100) // no auditor: records nothing
	res := rec.Evaluate(nil)
	if res.Windows != 0 || len(res.Reports) != 0 || len(res.Events) != 0 || res.Points(1) != nil {
		t.Errorf("auditor-less recorder closed windows: %+v", res)
	}
	if got := res.RenderReport(); !strings.Contains(got, " 0 windows closed") || !strings.Contains(got, "(no delay-bounded tenants)") {
		t.Errorf("RenderReport = %q", got)
	}
}

func TestBurnMath(t *testing.T) {
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(1, 1e9, 15e3, 1e-3)
	rec := NewRecorder(a, ms)
	drive(a, 1, 999, 1) // exactly the budget: burn 1.0
	rec.Close(ms, -1, 0)
	res := rec.Evaluate(nil)
	r := res.Reports[0]
	if r.WorstBurn < 0.999 || r.WorstBurn > 1.001 {
		t.Errorf("burn = %v, want 1.0 at exactly-budget error rate", r.WorstBurn)
	}
	if r.BudgetBurntPct < 99.9 || r.BudgetBurntPct > 100.1 {
		t.Errorf("budget burnt = %v%%, want ~100%%", r.BudgetBurntPct)
	}
	// Exactly-at-budget must not fire a 14.4x alert.
	for _, ev := range res.Events {
		if ev.Kind != EventWindowViolation {
			t.Errorf("unexpected alert at burn 1.0: %+v", ev)
		}
	}
}

// steadyWindows builds the steady-state window close: 16 tenants with
// live traffic. Each call of the returned func observes one packet per
// tenant and closes the next window.
func steadyWindows() func() {
	a := obs.NewGuaranteeAuditor(nil)
	for id := 1; id <= 16; id++ {
		a.Admit(id, 1e9, 15e3, 1e-3)
	}
	rec := NewRecorder(a, ms)
	rec.Close(0, -1, 0)
	var now int64
	return func() {
		for id := 1; id <= 16; id++ {
			a.ObserveDelay(id, 100_000)
		}
		now += ms
		rec.Close(now, 5, 1000)
	}
}

// Like the rollup capture, the window close runs on the simulated-time
// hot path, so it must not allocate: the row appends amortize to zero
// allocations per window.
func TestCloseZeroAllocs(t *testing.T) {
	window := steadyWindows()
	if allocs := testing.AllocsPerRun(1000, window); allocs != 0 {
		t.Errorf("steady-state Close allocates %v per window, want 0", allocs)
	}
}

func BenchmarkClose(b *testing.B) {
	window := steadyWindows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}

// TestSetDelayBoundAfterFlush changes a tracked tenant's bound after the
// first window closes, the way failure recovery degrades a tenant mid-run: the
// next window's event and the report must carry the bound the auditor
// judged the violating packet against.
func TestSetDelayBoundAfterFlush(t *testing.T) {
	a, rec := newRecorder(t)
	var tapped []obs.ViolationEvent
	a.SetViolationTap(func(ev obs.ViolationEvent) { tapped = append(tapped, ev) })

	drive(a, 7, 10, 0)
	rec.Close(ms, -1, 0)
	a.SetDelayBound(7, 3e-3)               // loosened to 3ms
	a.ObserveDelivery(7, 1, 2, 2*ms, 5*ms) // 5ms: over the new bound
	rec.Close(2*ms, -1, 0)

	if len(tapped) != 1 || tapped[0].BoundNs != 3*ms {
		t.Fatalf("auditor violations = %+v, want one against a 3ms bound", tapped)
	}
	res := rec.Evaluate(nil)
	var got []int64
	for _, ev := range res.Events {
		if ev.Kind == EventWindowViolation {
			got = append(got, ev.BoundNs)
		}
	}
	if len(got) != 1 || got[0] != tapped[0].BoundNs {
		t.Errorf("window-violation bounds = %v, want [%d]", got, tapped[0].BoundNs)
	}
	for _, r := range res.Reports {
		if r.ID == 7 && r.BoundNs != 3*ms {
			t.Errorf("tenant 7 report bound = %d, want %d", r.BoundNs, 3*ms)
		}
	}
}
