package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNilAuditor(t *testing.T) {
	var a *GuaranteeAuditor
	a.ObserveDelivery(1, -1, -1, 0, 5)
	if a.Admit(1, 1) != nil {
		t.Error("nil auditor Admit must return nil")
	}
	if got := a.Summary(); got != "guarantee audit: disabled" {
		t.Errorf("nil auditor summary = %q", got)
	}
}

func TestGuaranteeAuditor(t *testing.T) {
	a := NewGuaranteeAuditor()
	ta := a.Admit(1, 1e-3) // d = 1 ms
	a.Admit(2, 0)          // no bound
	if ta2 := a.Admit(1, 1); ta2 != ta {
		t.Error("re-admitting tenant 1 must return existing state")
	}
	if got, ok := a.Tenant(1); !ok || got != ta {
		t.Errorf("Tenant(1) = %p, %v; want the admitted state", got, ok)
	}

	a.ObserveDelivery(1, -1, -1, 0, 200_000)   // 200 µs: fine
	a.ObserveDelivery(1, -1, -1, 0, 1_500_000) // 1.5 ms: violation
	a.ObserveDelivery(2, -1, -1, 0, 9_000_000) // unbounded tenant: never a violation
	a.ObserveDelivery(3, -1, -1, 0, 1)         // unknown tenant: ignored

	if ta.Packets != 2 || ta.Violations != 1 || ta.MaxDelayNs != 1_500_000 {
		t.Errorf("packets/violations/max = %d/%d/%d, want 2/1/1500000", ta.Packets, ta.Violations, ta.MaxDelayNs)
	}
	sum := a.Summary()
	for _, want := range []string{"tenant 1", "packets=2", "maxDelay=1500.0µs", "bound=1000.0µs", "violations=1", "1 tenant(s) without delay bound (1 packets observed)"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
}

// The auditor keeps its counts as plain fields: it audits a tenant with no
// metrics sink behind it and reports through Tenant and Summary alone.
func TestGuaranteeAuditorWithoutRegistry(t *testing.T) {
	a := NewGuaranteeAuditor()
	a.Admit(5, 1e-4)
	a.ObserveDelivery(5, -1, -1, 0, 50_000)
	a.ObserveDelivery(5, -1, -1, 0, 200_000)
	ta, ok := a.Tenant(5)
	if !ok {
		t.Fatal("tenant not admitted")
	}
	if ta.Violations != 1 || ta.Packets != 2 {
		t.Errorf("violations/packets = %d/%d, want 1/2", ta.Violations, ta.Packets)
	}
	if !strings.Contains(a.Summary(), "violations=1") {
		t.Errorf("summary: %s", a.Summary())
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	var a *GuaranteeAuditor
	allocs := testing.AllocsPerRun(1000, func() {
		a.ObserveDelivery(1, 11, 12, 1000, 456)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
}

// Auditing a delivery, within the bound or over it, is a map lookup and
// three field updates.
func TestEnabledPathZeroAllocs(t *testing.T) {
	a := NewGuaranteeAuditor()
	ta := a.Admit(1, 1e-6) // d = 1 µs
	var v int64
	allocs := testing.AllocsPerRun(1000, func() {
		v++
		a.ObserveDelivery(1, 11, 12, v, v%2_000)
	})
	if allocs != 0 {
		t.Errorf("enabled path allocates %v per op, want 0", allocs)
	}
	if ta.Packets == 0 || ta.Violations == 0 || ta.Violations == ta.Packets {
		t.Errorf("packets/violations = %d/%d: the loop must audit both sides of the bound", ta.Packets, ta.Violations)
	}
}

// TestViolationSourceJSON: each named source round-trips by name and
// decodes from its number; a number with no name, or an unknown name,
// is refused, since MarshalJSON could only write it back as a name the
// decoder refuses ("source(7)").
func TestViolationSourceJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ViolationSource
		ok   bool
	}{
		{`"delivery"`, SourceDelivery, true},
		{`"window"`, SourceWindow, true},
		{`0`, SourceDelivery, true},
		{`1`, SourceWindow, true},
		{`7`, 0, false},
		{`"source(7)"`, 0, false},
		{`"burst"`, 0, false},
		{`1.5`, 0, false},
	} {
		var got ViolationSource
		err := json.Unmarshal([]byte(tc.in), &got)
		if (err == nil) != tc.ok {
			t.Errorf("decoding %s: error %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			if !strings.Contains(err.Error(), "unknown violation source") {
				t.Errorf("decoding %s: error %q, want unknown violation source", tc.in, err)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("decoding %s = %v, want %v", tc.in, got, tc.want)
		}
		out, _ := json.Marshal(got)
		var back ViolationSource
		if err := json.Unmarshal(out, &back); err != nil || back != got {
			t.Errorf("round trip of %s through %s = %v, %v", tc.in, out, back, err)
		}
	}
}
