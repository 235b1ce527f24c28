package incident

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
)

// deliveryViol builds a per-packet violation event.
func deliveryViol(tNs int64, tenant, dstVM, srcVM int, delayNs, boundNs int64) obs.ViolationEvent {
	return obs.ViolationEvent{
		TimeNs: tNs, Source: obs.SourceDelivery, Tenant: tenant,
		VM: dstVM, SrcVM: srcVM, DelayNs: delayNs, BoundNs: boundNs,
		Count: 1, CulpritPort: -1,
	}
}

// windowViol builds a window-violation event.
func windowViol(startNs, endNs int64, tenant int, count int64, culprit int32) obs.ViolationEvent {
	return obs.ViolationEvent{
		TimeNs: endNs, Source: obs.SourceWindow, Tenant: tenant,
		VM: -1, SrcVM: -1, WindowStartNs: startNs, WindowEndNs: endNs,
		BoundNs: 350e3, Count: count, CulpritPort: culprit,
	}
}

// envelope builds an introspection VM envelope fixture.
func envelope(vm, tenant int, violated bool) introspect.VMEnvelope {
	return introspect.VMEnvelope{
		VMID: vm, TenantID: tenant, Emissions: 100,
		AdmittedRateBps: 500e6, AdmittedBurstBytes: 15e3,
		FittedRateBps: 400e6, FittedBurstBytes: 12e3,
		Violated: violated,
	}
}

func TestEmptyRunZeroIncidents(t *testing.T) {
	rep := Correlate(Inputs{})
	if len(rep.Incidents) != 0 || rep.TotalViolations != 0 || rep.Unexplained != 0 {
		t.Fatalf("empty run produced %+v", rep)
	}
	if !strings.Contains(rep.Render(), "clean run") {
		t.Fatalf("empty render missing clean-run note:\n%s", rep.Render())
	}
}

func TestFaultOnlyClusterIsNotAnIncident(t *testing.T) {
	rep := Correlate(Inputs{Faults: []faults.Window{{Label: "x", Target: "link 3", StartNs: 1e6, EndNs: 2e6}}})
	if len(rep.Incidents) != 0 {
		t.Fatalf("fault window with no violations became an incident: %+v", rep.Incidents)
	}
}

// Two faults inside one merge window coalesce into a single incident
// listing both fault labels.
func TestTwoFaultsInOneMergeWindowCoalesce(t *testing.T) {
	rep := Correlate(Inputs{
		Faults: []faults.Window{
			{Label: "switch-down switch tor0 @10000000ns", Target: "switch tor0", StartNs: 10e6, EndNs: 12e6},
			{Label: "link-down link 5 @13000000ns", Target: "link 5", StartNs: 13e6, EndNs: 14e6},
		},
		Violations: []obs.ViolationEvent{
			deliveryViol(10.5e6, 1, 1000, 1001, 500e3, 350e3),
			deliveryViol(13.5e6, 1, 1000, 1002, 600e3, 350e3),
		},
	})
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 coalesced incident, got %d: %s", len(rep.Incidents), rep.Render())
	}
	inc := rep.Incidents[0]
	if inc.Verdict != VerdictInjectedFault {
		t.Fatalf("verdict = %s, want injected-fault", inc.Verdict)
	}
	if len(inc.Faults) != 2 {
		t.Fatalf("coalesced incident lists %d faults, want 2: %v", len(inc.Faults), inc.Faults)
	}
}

// Violations straddling a window boundary land in one incident,
// not two: the merge gap bridges the boundary and the window events
// span it.
func TestViolationsStraddlingWindowBoundary(t *testing.T) {
	rep := Correlate(Inputs{Violations: []obs.ViolationEvent{
		deliveryViol(0.99e6, 1, 1000, 1001, 400e3, 350e3),
		deliveryViol(1.01e6, 1, 1000, 1002, 410e3, 350e3),
		windowViol(0, 1e6, 1, 1, -1),
		windowViol(1e6, 2e6, 1, 1, -1),
	}})
	if len(rep.Incidents) != 1 {
		t.Fatalf("boundary-straddling violations split into %d incidents:\n%s",
			len(rep.Incidents), rep.Render())
	}
	inc := rep.Incidents[0]
	if inc.Violations != 2 || inc.WindowViolations != 2 {
		t.Fatalf("got %d packet / %d window violations, want 2/2", inc.Violations, inc.WindowViolations)
	}
}

func TestDistantViolationsSplit(t *testing.T) {
	rep := Correlate(Inputs{Violations: []obs.ViolationEvent{
		deliveryViol(1e6, 1, 1000, 1001, 400e3, 350e3),
		deliveryViol(10e6, 1, 1000, 1002, 410e3, 350e3),
	}})
	if len(rep.Incidents) != 2 {
		t.Fatalf("violations 9ms apart with 2ms merge gap: got %d incidents, want 2", len(rep.Incidents))
	}
}

func TestSelfInflictedNamesSenders(t *testing.T) {
	rep := Correlate(Inputs{
		Violations: []obs.ViolationEvent{deliveryViol(1e6, 1, 1000, 1003, 400e3, 350e3)},
		Snapshot: &introspect.Snapshot{Envelopes: []introspect.VMEnvelope{
			envelope(1000, 1, false),
			envelope(1003, 1, true),
			envelope(1004, 1, true),
		}},
	})
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 incident, got %d", len(rep.Incidents))
	}
	inc := rep.Incidents[0]
	if inc.Verdict != VerdictSelfInflicted {
		t.Fatalf("verdict = %s, want self-inflicted (%s)", inc.Verdict, inc.Reason)
	}
	if len(inc.CulpritVMs) != 2 || inc.CulpritVMs[0] != 1003 || inc.CulpritVMs[1] != 1004 {
		t.Fatalf("culprit VMs = %v, want [1003 1004]", inc.CulpritVMs)
	}
	if rep.Unexplained != 0 {
		t.Fatalf("unexplained = %d, want 0", rep.Unexplained)
	}
}

// The synthetic neighbor-interference fixture: victim tenant 1 is
// conformant, tenant 2 broke its envelope, and the shared port's
// introspected margin went negative.
func TestNeighborInterferenceFixture(t *testing.T) {
	rep := Correlate(Inputs{
		Violations: []obs.ViolationEvent{
			{TimeNs: 1e6, Source: obs.SourceDelivery, Tenant: 1, VM: 1000, SrcVM: 1001,
				DelayNs: 400e3, BoundNs: 350e3, Count: 1, CulpritPort: 7},
		},
		Snapshot: &introspect.Snapshot{
			Envelopes: []introspect.VMEnvelope{
				envelope(1000, 1, false),
				envelope(1001, 1, false),
				envelope(2000, 2, true),
			},
			Ports: []introspect.PortHeadroom{{
				Port: 7, Name: "tor0.down2", Bounded: true,
				Bounds:      introspect.PortBounds{BacklogBytes: 100e3},
				MarginBytes: -5e3,
			}},
		},
	})
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 incident, got %d", len(rep.Incidents))
	}
	inc := rep.Incidents[0]
	if inc.Verdict != VerdictNeighborInterference {
		t.Fatalf("verdict = %s, want neighbor-interference (%s)", inc.Verdict, inc.Reason)
	}
	if len(inc.CulpritTenants) != 1 || inc.CulpritTenants[0] != 2 {
		t.Fatalf("culprit tenants = %v, want [2]", inc.CulpritTenants)
	}
	if inc.MinMarginPort != 7 || inc.MinMarginBytes >= 0 {
		t.Fatalf("margin evidence = port %d %.1f, want port 7 negative", inc.MinMarginPort, inc.MinMarginBytes)
	}
	if !strings.Contains(inc.Reason, "margin went negative") {
		t.Fatalf("reason misses margin evidence: %s", inc.Reason)
	}
}

// The doctored bound-breach fixture: every envelope conformant, all
// margins positive, no fault — yet a violation. Must classify
// bound-breach (and page), never unexplained.
func TestBoundBreachFixtureNotUnexplained(t *testing.T) {
	rep := Correlate(Inputs{
		Violations: []obs.ViolationEvent{
			{TimeNs: 1e6, Source: obs.SourceDelivery, Tenant: 1, VM: 1000, SrcVM: 1001,
				DelayNs: 400e3, BoundNs: 350e3, Count: 1, CulpritPort: 7},
		},
		Snapshot: &introspect.Snapshot{
			Envelopes: []introspect.VMEnvelope{
				envelope(1000, 1, false),
				envelope(1001, 1, false),
			},
			Ports: []introspect.PortHeadroom{{
				Port: 7, Name: "tor0.down2", Bounded: true,
				Bounds:      introspect.PortBounds{BacklogBytes: 100e3},
				MarginBytes: 40e3,
			}},
		},
	})
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 incident, got %d", len(rep.Incidents))
	}
	inc := rep.Incidents[0]
	if inc.Verdict != VerdictBoundBreach {
		t.Fatalf("verdict = %s, want bound-breach (%s)", inc.Verdict, inc.Reason)
	}
	if !inc.Page {
		t.Fatal("bound-breach must page")
	}
	if rep.Unexplained != 0 {
		t.Fatalf("unexplained = %d, want 0 — the fixture must classify, not dodge", rep.Unexplained)
	}
	if rep.BoundBreaches != 1 {
		t.Fatalf("report counts %d bound breaches, want 1", rep.BoundBreaches)
	}
}

// Fault overlap takes precedence over every envelope verdict.
func TestInjectedFaultPrecedence(t *testing.T) {
	rep := Correlate(Inputs{
		Faults: []faults.Window{
			{Label: "switch-down switch tor0 @500000ns", Target: "switch tor0", StartNs: 0.5e6, EndNs: 2e6, GraceNs: 1e6},
		},
		Violations: []obs.ViolationEvent{deliveryViol(1e6, 1, 1000, 1003, 400e3, 350e3)},
		Snapshot:   &introspect.Snapshot{Envelopes: []introspect.VMEnvelope{envelope(1003, 1, true)}},
	})
	if v := rep.Incidents[0].Verdict; v != VerdictInjectedFault {
		t.Fatalf("verdict = %s, want injected-fault over self-inflicted", v)
	}
}

func TestUnexplainedWithoutEvidence(t *testing.T) {
	rep := Correlate(Inputs{Violations: []obs.ViolationEvent{deliveryViol(1e6, 1, 1000, 1001, 400e3, 350e3)}})
	if rep.Incidents[0].Verdict != VerdictUnexplained || rep.Unexplained != 1 {
		t.Fatalf("no-evidence run: verdict %s, unexplained %d", rep.Incidents[0].Verdict, rep.Unexplained)
	}
}

// Every violation is a member of exactly one incident: totals add up
// no matter how violations scatter.
func TestEveryViolationExactlyOnce(t *testing.T) {
	var evs []obs.ViolationEvent
	for i := 0; i < 40; i++ {
		evs = append(evs, deliveryViol(int64(i)*3e6, 1+i%3, 1000+i, 2000+i, 400e3, 350e3))
	}
	rep := Correlate(Inputs{Violations: evs})
	var sum int64
	for _, inc := range rep.Incidents {
		sum += inc.Violations
	}
	if sum != 40 || rep.TotalViolations != 40 {
		t.Fatalf("40 violations in, %d correlated (report says %d)", sum, rep.TotalViolations)
	}
}

// Input order must not matter: reversed and shuffled streams render
// byte-identically (the canonical-sort guarantee).
func TestRenderIndependentOfInputOrder(t *testing.T) {
	mk := func() []obs.ViolationEvent {
		var evs []obs.ViolationEvent
		for i := 0; i < 25; i++ {
			evs = append(evs, deliveryViol(int64(i%7)*1e6, 1+i%2, 1000+i%5, 2000+i%4, int64(360e3+i*1000), 350e3))
		}
		evs = append(evs, windowViol(0, 1e6, 1, 3, 7), windowViol(1e6, 2e6, 2, 2, -1))
		return evs
	}
	want := Correlate(Inputs{Violations: mk()}).Render()

	rev := mk()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if got := Correlate(Inputs{Violations: rev}).Render(); got != want {
		t.Fatalf("render depends on input order:\n--- forward ---\n%s--- reversed ---\n%s", want, got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := Correlate(Inputs{
		Violations: []obs.ViolationEvent{deliveryViol(1e6, 1, 1000, 1001, 400e3, 350e3)},
		Meta:       &obs.RunMeta{Tool: "test", Version: "deadbeef"},
	})

	path := filepath.Join(t.TempDir(), "incidents.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta == nil || got.Meta.Tool != "test" {
		t.Fatalf("meta lost in round trip: %+v", got.Meta)
	}
	if len(got.Incidents) != 1 || got.Incidents[0].Verdict != rep.Incidents[0].Verdict {
		t.Fatalf("incidents lost in round trip: %+v", got.Incidents)
	}

	// A report from before RunMeta lost its worker count still loads.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(b, []byte(`"tool": "test",`), []byte(`"tool": "test", "workers": 4,`), 1)
	if bytes.Equal(old, b) {
		t.Fatalf("no tool field to put a workers field after in %s", b)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(path); err != nil || got.Meta == nil || got.Meta.Tool != "test" || len(got.Incidents) != 1 {
		t.Fatalf("report with \"workers\" in its meta: %+v, error %v", got, err)
	}
}

// failWriter refuses every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// Each way writing or reading a report fails surfaces as an error: a
// writer that refuses, a value JSON cannot hold, a missing directory or
// file, and a truncated document.
func TestReportFileErrors(t *testing.T) {
	dir := t.TempDir()
	rep := Correlate(Inputs{
		Violations: []obs.ViolationEvent{deliveryViol(1e6, 1, 1000, 1001, 400e3, 350e3)},
	})
	if err := rep.WriteJSON(failWriter{}); err == nil || err.Error() != "disk full" {
		t.Errorf("WriteJSON to a refusing writer: error %v, want disk full", err)
	}
	missing := filepath.Join(dir, "missing", "incidents.json")
	if err := rep.WriteFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("WriteFile into a missing directory: error %v, want not-exist", err)
	}
	if _, err := ReadFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadFile of a missing file: error %v, want not-exist", err)
	}

	path := filepath.Join(dir, "incidents.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("ReadFile of a truncated report: error %v, want one naming %s", err, path)
	}

	bad := &Report{Incidents: []Incident{{MinMarginBytes: math.NaN()}}}
	nan := filepath.Join(dir, "nan.json")
	if err := bad.WriteFile(nan); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("WriteFile of a NaN margin: error %v, want an unsupported-value error", err)
	}
	if _, err := os.Stat(nan); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a report that does not marshal left a file: stat error %v", err)
	}
}

func TestVerdictJSONRoundTrip(t *testing.T) {
	for _, v := range Verdicts() {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var got Verdict
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if got != v {
			t.Fatalf("%s round-tripped to %s", v, got)
		}
	}
	var bad Verdict
	if err := json.Unmarshal([]byte(`"nonsense"`), &bad); err == nil {
		t.Fatal("unknown verdict must not unmarshal")
	}
}

func TestDrillDownRender(t *testing.T) {
	rep := Correlate(Inputs{
		Faults: []faults.Window{
			{Label: "switch-down switch tor0 @500000ns", Target: "switch tor0", StartNs: 0.5e6, EndNs: 2e6, GraceNs: 1e6},
		},
		Violations: []obs.ViolationEvent{deliveryViol(1e6, 1, 1000, 1003, 400e3, 350e3)},
	})
	out := rep.RenderIncident(1)
	for _, want := range []string{"incident 1", "injected-fault", "fault injected: switch-down switch tor0", "restored: switch tor0", "first violation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("drill-down missing %q:\n%s", want, out)
		}
	}
	if miss := rep.RenderIncident(99); !strings.Contains(miss, "not found") {
		t.Fatalf("missing-id drill-down: %s", miss)
	}
}

// The incident list cuts a long reason at a rune boundary: a
// self-inflicted reason whose "—" straddles the 79-byte cut loses the
// whole rune, never part of it.
func TestRenderCutsReasonAtRuneBoundary(t *testing.T) {
	for _, c := range []struct {
		tenants []int
		vms     []int
		tail    string
	}{
		{[]int{1, 2}, []int{1004, 1005}, "[1004 1005] …"},
		{[]int{12}, []int{1004, 1005}, "[1004 1005] …"},
	} {
		in := Inputs{Snapshot: &introspect.Snapshot{}}
		for i, tn := range c.tenants {
			in.Violations = append(in.Violations, deliveryViol(1e6, tn, 1000+i, c.vms[i], 400e3, 350e3))
			in.Snapshot.Envelopes = append(in.Snapshot.Envelopes, envelope(c.vms[i], tn, true))
		}
		for _, vm := range c.vms[len(c.tenants):] {
			in.Snapshot.Envelopes = append(in.Snapshot.Envelopes, envelope(vm, c.tenants[0], true))
		}
		rep := Correlate(in)
		if v := rep.Incidents[0].Verdict; v != VerdictSelfInflicted {
			t.Fatalf("tenants %v: verdict %s, want self-inflicted", c.tenants, v)
		}
		out := rep.Render()
		if !utf8.ValidString(out) {
			t.Errorf("tenants %v: the incident list is not valid UTF-8:\n%q", c.tenants, out)
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if last := lines[len(lines)-1]; !strings.HasSuffix(last, c.tail) {
			t.Errorf("tenants %v: list row %q does not end %q", c.tenants, last, c.tail)
		}
	}
}
