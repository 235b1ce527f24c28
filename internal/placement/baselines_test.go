package placement

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/tenant"
)

func TestLocalityPacksTightly(t *testing.T) {
	tree := smallTree(t)
	l := NewLocality(tree)
	pl, err := l.Place(tenant.Spec{ID: 1, Name: "a", VMs: 4})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(pl.DistinctServers()) != 1 {
		t.Errorf("4 VMs should pack one server, got %v", pl.Servers)
	}
	// Fill a rack and verify the next tenant stays as low as possible.
	for id := 2; id <= 4; id++ {
		if _, err := l.Place(tenant.Spec{ID: id, Name: "f", VMs: 4}); err != nil {
			t.Fatalf("Place %d: %v", id, err)
		}
	}
	pl5, err := l.Place(tenant.Spec{ID: 5, Name: "g", VMs: 4})
	if err != nil {
		t.Fatalf("Place 5: %v", err)
	}
	if s := pl5.DistinctServers(); len(s) != 1 || tree.RackOfServer(s[0]) != 1 {
		t.Errorf("tenant 5 should land on rack 1, got %v", pl5.Servers)
	}
}

func TestLocalityIgnoresNetwork(t *testing.T) {
	tree := smallTree(t)
	l := NewLocality(tree)
	// Absurd bandwidth demand: locality doesn't care.
	spec := tenant.Spec{
		ID: 1, Name: "hog", VMs: 8, FaultDomains: 2,
		Guarantee: tenant.Guarantee{BandwidthBps: 100 * gbps, BurstRateBps: 200 * gbps},
	}
	if _, err := l.Place(spec); err != nil {
		t.Errorf("locality should accept network hogs: %v", err)
	}
}

func TestLocalityCapacityAndRemove(t *testing.T) {
	tree := smallTree(t)
	l := NewLocality(tree)
	if _, err := l.Place(tenant.Spec{ID: 1, Name: "x", VMs: tree.Slots()}); err != nil {
		t.Fatalf("full-DC tenant rejected: %v", err)
	}
	if _, err := l.Place(tenant.Spec{ID: 2, Name: "y", VMs: 1}); !errors.Is(err, ErrRejected) {
		t.Errorf("tenant on full DC: %v, want ErrRejected", err)
	}
	if err := l.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := l.Place(tenant.Spec{ID: 3, Name: "z", VMs: tree.Slots()}); err != nil {
		t.Errorf("slots not freed: %v", err)
	}
	if err := l.Remove(99); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Errorf("Remove unknown = %v", err)
	}
}

func TestLocalityDuplicateAndInvalid(t *testing.T) {
	tree := smallTree(t)
	l := NewLocality(tree)
	if _, err := l.Place(tenant.Spec{ID: 1, Name: "a", VMs: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Place(tenant.Spec{ID: 1, Name: "a", VMs: 1}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := l.Place(tenant.Spec{ID: 2, VMs: 0}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestOktopusReservesBandwidth(t *testing.T) {
	tree := smallTree(t)
	o := NewOktopus(tree)
	spec := tenant.Spec{
		ID: 1, Name: "bw", VMs: 8, FaultDomains: 2,
		Guarantee: tenant.Guarantee{BandwidthBps: 2 * gbps, BurstRateBps: 10 * gbps},
	}
	pl, err := o.Place(spec)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	// Residual on a used NIC must have dropped by the hose cut.
	s0 := pl.Servers[0]
	up := tree.ServerUpPort(s0).ID
	if got := o.residual[up]; got >= tree.Config().LinkBps {
		t.Errorf("no bandwidth reserved at NIC %d: residual %v", up, got)
	}
	if err := o.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := o.residual[up]; got != tree.Config().LinkBps {
		t.Errorf("residual not restored: %v", got)
	}
}

func TestOktopusRejectsOverload(t *testing.T) {
	tree := smallTree(t)
	o := NewOktopus(tree)
	accepted := 0
	for id := 0; id < 64; id++ {
		spec := tenant.Spec{
			ID: id, Name: "big", VMs: 4, FaultDomains: 2,
			Guarantee: tenant.Guarantee{BandwidthBps: 2.5 * gbps, BurstRateBps: 10 * gbps},
		}
		if _, err := o.Place(spec); err == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == 64 {
		t.Errorf("accepted = %d; bandwidth admission not working", accepted)
	}
}

func TestOktopusIgnoresBurstAndDelay(t *testing.T) {
	// The defining difference from Silo: Oktopus accepts the Figure-5
	// 4/4/1-style pack (TestFigure5OktopusPacks) and accepts tenants
	// whose delay bound Silo would refuse.
	tree := smallTree(t)
	o := NewOktopus(tree)
	spec := tenant.Spec{
		ID: 1, Name: "tightdelay", VMs: 20,
		Guarantee: tenant.Guarantee{
			BandwidthBps: 10 * mbps, BurstBytes: 1500,
			DelayBound: 1e-9, BurstRateBps: gbps, // impossible delay
		},
	}
	if _, err := o.Place(spec); err != nil {
		t.Errorf("Oktopus should ignore delay bounds: %v", err)
	}
}

func TestOktopusBestEffort(t *testing.T) {
	tree := smallTree(t)
	o := NewOktopus(tree)
	if _, err := o.Place(tenant.Spec{ID: 1, Name: "be", VMs: 3, Class: tenant.ClassBestEffort}); err != nil {
		t.Errorf("best-effort rejected: %v", err)
	}
	for pid := 0; pid < tree.NumPorts(); pid++ {
		if o.residual[pid] != tree.Port(pid).RateBps {
			t.Error("best-effort tenant reserved bandwidth")
		}
	}
}

func TestOktopusDuplicateUnknown(t *testing.T) {
	tree := smallTree(t)
	o := NewOktopus(tree)
	if _, err := o.Place(tenant.Spec{ID: 1, Name: "a", VMs: 1, Guarantee: tenant.Guarantee{BandwidthBps: mbps}}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Place(tenant.Spec{ID: 1, Name: "a", VMs: 1}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := o.Remove(42); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Errorf("Remove unknown = %v", err)
	}
}

func TestHoseCut(t *testing.T) {
	cases := []struct {
		k, n int
		b    float64
		want float64
	}{
		{0, 5, 10, 0},
		{5, 5, 10, 0},
		{1, 5, 10, 10},
		{2, 5, 10, 20},
		{3, 5, 10, 20}, // min(3,2)
		{4, 5, 10, 10},
	}
	for _, tc := range cases {
		if got := hoseCut(tc.k, tc.n, tc.b); got != tc.want {
			t.Errorf("hoseCut(%d,%d,%v) = %v, want %v", tc.k, tc.n, tc.b, got, tc.want)
		}
	}
}

func TestNamesAndInterfaces(t *testing.T) {
	tree := smallTree(t)
	algs := []Algorithm{NewManager(tree, Options{}), NewLocality(tree), NewOktopus(tree)}
	names := map[string]bool{}
	for _, a := range algs {
		names[a.Name()] = true
	}
	for _, want := range []string{"silo", "locality", "oktopus"} {
		if !names[want] {
			t.Errorf("missing algorithm %q", want)
		}
	}
}
