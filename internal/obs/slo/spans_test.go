package slo

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// span builds a minimal annotated, complete span.
func span(deliverNs, totalNs, boundNs int64, tenant, worstPort int32, worstQ int64) obs.FlightSpan {
	return obs.FlightSpan{
		Complete: true, DeliverNs: deliverNs, TotalNs: totalNs,
		TenantID: tenant, BoundNs: boundNs,
		WorstPort: worstPort, WorstQueueNs: worstQ,
	}
}

func TestWindowsFromSpans(t *testing.T) {
	const win = int64(1000)
	spans := []obs.FlightSpan{
		// Window [0,1000): 2 delivered, 1 violated at port 5.
		span(100, 200, 1000, 7, 1, 10),
		span(900, 2000, 1000, 7, 5, 50),
		// Window [1000,2000): clean.
		span(1500, 200, 1000, 7, 1, 10),
		// Other tenant, other window, violated at port 9.
		span(2500, 9000, 2000, 8, 9, 70),
		// Unbounded / incomplete spans are skipped.
		span(100, 9000, 0, 1, 2, 30),
		{DeliverNs: 100, TotalNs: 9000, BoundNs: 1000, TenantID: 7},
	}
	byTenant := WindowsFromSpans(spans, win)
	if len(byTenant) != 2 {
		t.Fatalf("tenants = %d, want 2", len(byTenant))
	}
	w7 := byTenant[7]
	if len(w7) != 2 {
		t.Fatalf("tenant 7 windows = %+v", w7)
	}
	if w7[0].Delivered != 2 || w7[0].Violated != 1 || w7[0].CulpritPort != 5 || w7[0].CulpritQueueNs != 50 {
		t.Errorf("window 0 = %+v", w7[0])
	}
	if w7[1].Delivered != 1 || w7[1].Violated != 0 || w7[1].CulpritPort != -1 {
		t.Errorf("window 1 = %+v", w7[1])
	}
	w8 := byTenant[8]
	if len(w8) != 1 || w8[0].CulpritPort != 9 || w8[0].StartNs != 2000 {
		t.Errorf("tenant 8 = %+v", w8)
	}

	ports := make([]obs.PortMeta, 10)
	ports[5] = obs.PortMeta{Name: "agg1->tor0"}
	out := RenderTraceWindows(byTenant, ports)
	if !strings.Contains(out, "tenant 7") || !strings.Contains(out, "agg1->tor0") || !strings.Contains(out, "port9") {
		t.Errorf("render missing pieces:\n%s", out)
	}
}

func TestRenderTraceWindowsEmpty(t *testing.T) {
	if out := RenderTraceWindows(nil, nil); !strings.Contains(out, "no delay-bounded") {
		t.Errorf("empty render = %q", out)
	}
}
