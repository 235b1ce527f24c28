package tenant

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	mbps = 1e6 / 8
	gbps = 1e9 / 8
)

func TestGuaranteeValidate(t *testing.T) {
	good := Guarantee{BandwidthBps: 100 * mbps, BurstBytes: 1500, DelayBound: 1e-3, BurstRateBps: gbps}
	if err := good.Validate(); err != nil {
		t.Errorf("valid guarantee rejected: %v", err)
	}
	bad := []Guarantee{
		{BandwidthBps: -1},
		{BurstBytes: -1},
		{DelayBound: -1},
		{BandwidthBps: 2 * gbps, BurstRateBps: gbps}, // Bmax < B
	}
	// A non-finite value in any field: NaN fails every comparison, so a
	// "< 0" test alone lets it through, and +Inf is not negative.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Guarantee){
			func(g *Guarantee) { g.BandwidthBps = v },
			func(g *Guarantee) { g.BurstBytes = v },
			func(g *Guarantee) { g.DelayBound = v },
			func(g *Guarantee) { g.BurstRateBps = v },
		} {
			g := good
			set(&g)
			bad = append(bad, g)
		}
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad guarantee %d accepted: %+v", i, g)
		}
	}
}

func TestMessageLatencyBoundSmallMessage(t *testing.T) {
	// Paper §6.1: memcached guarantee B=210 Mbps, S=1.5 KB, d=1 ms,
	// Bmax=1 Gbps. The quoted message-latency guarantee is 2.01 ms
	// for the ~128 KB worst-case... actually the paper states 2.01 ms
	// for its ETC messages; verify the formula's two regimes instead.
	g := Guarantee{BandwidthBps: 210 * mbps, BurstBytes: 1500, DelayBound: 1e-3, BurstRateBps: gbps}
	// M <= S: M/Bmax + d.
	gotSmall := g.MessageLatencyBound(1000)
	wantSmall := 1000/(1*gbps) + 1e-3
	if math.Abs(gotSmall-wantSmall) > 1e-12 {
		t.Errorf("small bound = %v, want %v", gotSmall, wantSmall)
	}
	// M > S: S/Bmax + (M−S)/B + d.
	gotBig := g.MessageLatencyBound(30000)
	wantBig := 1500/(1*gbps) + (30000-1500)/(210*mbps) + 1e-3
	if math.Abs(gotBig-wantBig) > 1e-12 {
		t.Errorf("big bound = %v, want %v", gotBig, wantBig)
	}
	if gotBig <= gotSmall {
		t.Error("bigger message should have larger bound")
	}
}

func TestMessageLatencyBoundNoBmax(t *testing.T) {
	g := Guarantee{BandwidthBps: 100 * mbps, BurstBytes: 3000, DelayBound: 0}
	// Bursts at average rate when Bmax unset.
	got := g.MessageLatencyBound(2000)
	want := 2000 / (100 * mbps)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("bound = %v, want %v", got, want)
	}
}

func TestMessageLatencyBoundNoBandwidth(t *testing.T) {
	g := Guarantee{}
	if !math.IsInf(g.MessageLatencyBound(1), 1) {
		t.Error("no-bandwidth tenant should have infinite bound")
	}
	// Burst-only guarantee covers messages within S but not above.
	g = Guarantee{BurstBytes: 1000, BurstRateBps: gbps}
	if math.IsInf(g.MessageLatencyBound(500), 1) {
		t.Error("message within burst should be bounded")
	}
	if !math.IsInf(g.MessageLatencyBound(5000), 1) {
		t.Error("message above burst with B=0 should be unbounded")
	}
}

// Property: the bound is monotone in message size and decreasing in B
// and Bmax.
func TestBoundMonotoneProperty(t *testing.T) {
	f := func(m1Raw, m2Raw uint16, bRaw uint8) bool {
		m1, m2 := float64(m1Raw), float64(m2Raw)
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		b := float64(bRaw)*mbps + mbps
		g := Guarantee{BandwidthBps: b, BurstBytes: 1500, DelayBound: 1e-3, BurstRateBps: b * 4}
		if g.MessageLatencyBound(m1) > g.MessageLatencyBound(m2)+1e-12 {
			return false
		}
		faster := g
		faster.BandwidthBps *= 2
		faster.BurstRateBps *= 2
		return faster.MessageLatencyBound(m2) <= g.MessageLatencyBound(m2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Name: "a", VMs: 3, Class: ClassGuaranteed,
		Guarantee: Guarantee{BandwidthBps: mbps, BurstRateBps: gbps}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (Spec{Name: "z", VMs: 0}).Validate(); err == nil {
		t.Error("zero-VM spec accepted")
	}
	if err := (Spec{Name: "f", VMs: 2, FaultDomains: 3}).Validate(); err == nil {
		t.Error("FaultDomains > VMs accepted")
	}
	badG := Spec{Name: "g", VMs: 1, Class: ClassGuaranteed, Guarantee: Guarantee{BandwidthBps: -1}}
	if err := badG.Validate(); err == nil {
		t.Error("invalid guarantee accepted")
	}
	// Best-effort tenants skip guarantee validation.
	be := Spec{Name: "be", VMs: 1, Class: ClassBestEffort, Guarantee: Guarantee{BandwidthBps: -1}}
	if err := be.Validate(); err != nil {
		t.Errorf("best-effort spec rejected: %v", err)
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := Placement{Servers: []int{3, 1, 3, 2, 1, 3}}
	if got := p.VMsOnServer(3); got != 3 {
		t.Errorf("VMsOnServer(3) = %d, want 3", got)
	}
	if got := p.VMsOnServer(9); got != 0 {
		t.Errorf("VMsOnServer(9) = %d, want 0", got)
	}
	ds := p.DistinctServers()
	want := []int{1, 2, 3}
	if len(ds) != len(want) {
		t.Fatalf("DistinctServers = %v", ds)
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("DistinctServers = %v, want %v", ds, want)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassGuaranteed.String() != "guaranteed" || ClassBestEffort.String() != "best-effort" {
		t.Error("bad class strings")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should render")
	}
}
