package slo

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// fakeAttributor always blames one port.
type fakeAttributor struct {
	port int32
	q    int64
}

func (f fakeAttributor) WorstPort(_, _ int64) (int32, int64, bool) { return f.port, f.q, true }

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

func newEngine(t *testing.T) (*obs.GuaranteeAuditor, *Engine) {
	t.Helper()
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(7, 1e9, 15e3, 1e-3)  // 1ms bound: the SLO subject
	a.Admit(8, 1e9, 15e3, 10e-3) // 10ms bound: innocent bystander
	a.Admit(9, 1e9, 15e3, 0)     // no bound: not an SLO subject
	e := New(Config{WindowNs: ms}, a, fakeAttributor{port: 42, q: 5000})
	return a, e
}

// TestBurnAlertNamesTenantAndCulprit is the acceptance test: an
// induced d-violation produces a burn-rate alert naming the right
// tenant and the culprit port.
func TestBurnAlertNamesTenantAndCulprit(t *testing.T) {
	a, e := newEngine(t)

	now := int64(0)
	flush := func(good, bad int) {
		drive(a, 7, good, bad)
		drive(a, 8, 100, 0) // tenant 8 always clean
		now += ms
		e.Flush(now)
	}

	for i := 0; i < 5; i++ {
		flush(100, 0) // clean warmup
	}
	if evs := e.Events(); len(evs) != 0 {
		t.Fatalf("clean warmup produced events: %+v", evs)
	}

	// Induce violations: 30% of tenant 7's packets over the bound.
	// Window burn = 0.3/0.001 = 300, far over both thresholds.
	for i := 0; i < 3; i++ {
		flush(70, 30)
	}

	evs := e.Events()
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
	if violation.CulpritPort != 42 || violation.CulpritQueueNs != 5000 {
		t.Errorf("violation culprit = port %d (+%dns), want port 42 (+5000ns)",
			violation.CulpritPort, violation.CulpritQueueNs)
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
	if fastStart.BurnRate < e.Config().FastThreshold {
		t.Errorf("fast alert burn = %v, want >= %v", fastStart.BurnRate, e.Config().FastThreshold)
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
		flush(100, 0)
	}
	var fastEnd bool
	for _, ev := range e.Events() {
		if ev.Kind == EventFastBurnEnd && ev.Tenant == 7 {
			fastEnd = true
		}
	}
	if !fastEnd {
		t.Error("fast burn alert never ended after recovery")
	}

	// Reports: tenant 7 burnt budget, tenant 8 pristine.
	reports := e.Reports()
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

	table := e.RenderReport()
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
	e := New(Config{WindowNs: ms}, a, nil)

	drive(a, 1, 10, 0)
	e.Flush(ms)

	// Tenant admitted after the first window.
	a.Admit(2, 1e9, 15e3, 1e-3)
	drive(a, 1, 10, 0)
	drive(a, 2, 5, 1)
	e.Flush(2 * ms)

	w2 := e.Windows(2)
	if len(w2) != 2 {
		t.Fatalf("tenant 2 windows = %d, want 2", len(w2))
	}
	if w2[0].Delivered != 0 || w2[1].Delivered != 6 || w2[1].Violated != 1 {
		t.Errorf("tenant 2 windows = %+v", w2)
	}
	// Alert events carry CulpritPort -1 without an attributor.
	for _, ev := range e.Events() {
		if ev.CulpritPort != -1 {
			t.Errorf("no attributor but culprit = %d", ev.CulpritPort)
		}
	}
}

func TestEventCap(t *testing.T) {
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(1, 1e9, 15e3, 1e-3)
	e := New(Config{WindowNs: ms, MaxEvents: 4}, a, nil)
	for i := 1; i <= 20; i++ {
		drive(a, 1, 0, 5)
		e.Flush(int64(i) * ms)
	}
	if len(e.Events()) != 4 {
		t.Errorf("events = %d, want cap 4", len(e.Events()))
	}
	if e.EventsDropped() == 0 {
		t.Error("dropped counter not incremented")
	}
}

func TestNilEngineAndAuditor(t *testing.T) {
	var e *Engine
	e.Flush(1)
	if e.Reports() != nil || e.Events() != nil || e.Windows(1) != nil {
		t.Error("nil engine should return nils")
	}
	if got := e.RenderReport(); got != "slo: disabled" {
		t.Errorf("nil RenderReport = %q", got)
	}
	e2 := New(Config{}, nil, nil)
	e2.Flush(1) // no auditor: idle, no panic
	if e2.Flushes() != 0 {
		t.Error("auditor-less engine should idle")
	}
}

func TestBurnMath(t *testing.T) {
	a := obs.NewGuaranteeAuditor(nil)
	a.Admit(1, 1e9, 15e3, 1e-3)
	e := New(Config{WindowNs: ms, Objective: 0.99}, a, nil)
	drive(a, 1, 99, 1) // exactly the budget: burn 1.0
	e.Flush(ms)
	r := e.Reports()[0]
	if r.WorstBurn < 0.999 || r.WorstBurn > 1.001 {
		t.Errorf("burn = %v, want 1.0 at exactly-budget error rate", r.WorstBurn)
	}
	if r.BudgetBurntPct < 99.9 || r.BudgetBurntPct > 100.1 {
		t.Errorf("budget burnt = %v%%, want ~100%%", r.BudgetBurntPct)
	}
	// Exactly-at-budget must not fire a 14.4x alert.
	for _, ev := range e.Events() {
		if ev.Kind != EventWindowViolation {
			t.Errorf("unexpected alert at burn 1.0: %+v", ev)
		}
	}
}

// steadyWindows builds the steady-state window close: 16 tenants with
// live traffic, no alert transitions. Each call of the returned func
// observes one packet per tenant and closes the next window.
func steadyWindows() func() {
	a := obs.NewGuaranteeAuditor(nil)
	for id := 1; id <= 16; id++ {
		a.Admit(id, 1e9, 15e3, 1e-3)
	}
	e := New(Config{WindowNs: ms}, a, nil)
	e.Flush(0)
	var now int64
	return func() {
		for id := 1; id <= 16; id++ {
			a.ObserveDelay(id, 100_000)
		}
		now += ms
		e.Flush(now)
	}
}

// Like the rollup capture, the window close runs on the simulated-time
// hot path, so it must not allocate.
func TestFlushZeroAllocs(t *testing.T) {
	window := steadyWindows()
	if allocs := testing.AllocsPerRun(1000, window); allocs != 0 {
		t.Errorf("steady-state Flush allocates %v per window, want 0", allocs)
	}
}

func BenchmarkFlush(b *testing.B) {
	window := steadyWindows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}
