package experiments

import (
	"repro/internal/tenant"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	p := DefaultTable1Params()
	p.Messages = 20000
	r := RunTable1(p)
	if len(r.LatePct) != len(p.BurstMultiples) {
		t.Fatalf("rows = %d", len(r.LatePct))
	}
	// Column B (no headroom) must be mostly late (paper: 98-99%; the
	// 9M row dips slightly at small sample sizes).
	for i := range p.BurstMultiples {
		if r.LatePct[i][0] < 70 {
			t.Errorf("burst %dM at 1.0B: %.1f%% late, want >70%%", p.BurstMultiples[i], r.LatePct[i][0])
		}
	}
	// Generous burst + bandwidth must be nearly never late (paper:
	// 7M/1.8B -> 0.09%).
	if got := r.LatePct[3][2]; got > 1 {
		t.Errorf("7M/1.8B: %.2f%% late, want <1%%", got)
	}
	// Lateness decreases along both axes (sampled corners).
	if r.LatePct[0][1] < r.LatePct[4][1] {
		t.Error("lateness should fall with burst allowance")
	}
	if r.LatePct[1][1] < r.LatePct[1][5] {
		t.Error("lateness should fall with bandwidth headroom")
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure5Reproduces(t *testing.T) {
	r, err := RunFigure5()
	if err != nil {
		t.Fatal(err)
	}
	if r.SiloLayout[0] != 3 || r.SiloLayout[1] != 3 || r.SiloLayout[2] != 3 {
		t.Errorf("Silo layout = %v, want 3/3/3", r.SiloLayout)
	}
	if r.OktoLayout[0] != 4 || r.OktoLayout[2] != 1 {
		t.Errorf("Okto layout = %v, want 4/4/1", r.OktoLayout)
	}
	if !r.OktoOverflows {
		t.Error("the bandwidth-aware layout must overflow")
	}
	if r.SiloWorstBytes > r.BufferBytes {
		t.Error("Silo's layout must fit the buffer")
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure10Shape(t *testing.T) {
	p := DefaultFigure10Params()
	p.WireSeconds = 0.01
	rows := RunFigure10(p)
	if len(rows) != len(p.RateLimitsGbps) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Data throughput tracks the limit; data+void fills the link
		// (paper Fig. 10b: "the pacer sustains 100% of link capacity").
		if r.DataGbps < 0.95*r.RateGbps || r.DataGbps > 1.05*r.RateGbps {
			t.Errorf("limit %v: data %.2f Gbps", r.RateGbps, r.DataGbps)
		}
		total := r.DataGbps + r.VoidGbps
		if total < 9.5 || total > 10.5 {
			t.Errorf("limit %v: total %.2f Gbps, want ≈10", r.RateGbps, total)
		}
	}
	// Void share falls as the data rate rises.
	if rows[0].VoidGbps < rows[len(rows)-1].VoidGbps {
		t.Error("void share should fall with rate limit")
	}
	if RenderFigure10(rows) == "" {
		t.Error("empty render")
	}
}

func table3ClassA() (g tenant.Guarantee) {
	g.BandwidthBps = 0.25 * gbps
	g.BurstBytes = 15e3
	g.DelayBound = 1e-3
	g.BurstRateBps = 1 * gbps
	return g
}
