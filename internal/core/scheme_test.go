package core

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/transport"
	"repro/internal/workload"
)

func TestSchemeStringsAndConfig(t *testing.T) {
	for _, s := range AllSchemes {
		if s.String() == "" {
			t.Errorf("scheme %d has empty name", s)
		}
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if Scheme(42).String() == "" {
		t.Error("unknown scheme should render")
	}
	if got, err := ParseScheme("okto+"); err != nil || got != SchemeOktoPlus {
		t.Errorf("ParseScheme(okto+) = %v, %v", got, err)
	}
	for _, name := range []string{"", "nope", "scheme(42)"} {
		if _, err := ParseScheme(name); err == nil {
			t.Errorf("ParseScheme(%q) accepted", name)
		}
	}
	if !SchemeSilo.Paced() || SchemeTCP.Paced() || !SchemeOkto.Paced() || !SchemeOktoPlus.Paced() {
		t.Error("Paced() wrong")
	}
}

// The pacer configuration each scheme derives from one guarantee, row
// by row: Okto enforces the average rate only (one MTU of burst, sent
// at B), Okto+ is Silo's, the transport-only schemes have none.
func TestSchemePacerGuarantee(t *testing.T) {
	g := classASpec(4).Guarantee
	full := pacer.Guarantee{BandwidthBps: g.BandwidthBps, BurstBytes: g.BurstBytes, BurstRateBps: g.BurstRateBps, MTUBytes: 1518}
	for _, c := range []struct {
		s     Scheme
		want  pacer.Guarantee
		paced bool
	}{
		{SchemeSilo, full, true},
		{SchemeOktoPlus, full, true},
		{SchemeOkto, pacer.Guarantee{BandwidthBps: g.BandwidthBps, BurstBytes: 1518, BurstRateBps: g.BandwidthBps, MTUBytes: 1518}, true},
		{SchemeTCP, pacer.Guarantee{}, false},
		{SchemeDCTCP, pacer.Guarantee{}, false},
		{SchemeHULL, pacer.Guarantee{}, false},
	} {
		got, ok := c.s.PacerGuarantee(g)
		if got != c.want || ok != c.paced || ok != c.s.Paced() {
			t.Errorf("%s: PacerGuarantee = %+v, %v; want %+v, %v", c.s, got, ok, c.want, c.paced)
		}
	}
}

func TestSchemeNetOptions(t *testing.T) {
	if o := SchemeDCTCP.NetOptions(); o.ECNThresholdBytes == 0 {
		t.Error("DCTCP needs ECN switches")
	}
	if o := SchemeHULL.NetOptions(); o.PhantomGamma == 0 {
		t.Error("HULL needs phantom queues")
	}
	if o := SchemeSilo.NetOptions(); o.ECNThresholdBytes != 0 || o.PhantomGamma != 0 {
		t.Error("Silo switches are commodity")
	}
	for _, s := range AllSchemes {
		if s.NetOptions().PropNs != PropNs {
			t.Errorf("%s: propagation delay %d", s, s.NetOptions().PropNs)
		}
	}
}

func TestSchemePlacers(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeSilo: "silo", SchemeOkto: "oktopus", SchemeOktoPlus: "oktopus",
		SchemeTCP: "locality", SchemeDCTCP: "locality", SchemeHULL: "locality",
	} {
		if got := s.Placer(testTree(t)).Name(); got != want {
			t.Errorf("%s placer = %s, want %s", s, got, want)
		}
	}
}

// Deploy paces exactly when the scheme paces and the tenant is of the
// guaranteed class; a best-effort tenant is never paced and rides the
// low priority under every scheme.
func TestDeployPacesPerScheme(t *testing.T) {
	for _, s := range AllSchemes {
		tree := testTree(t)
		c := NewWith(tree, s, nil)
		if (c.Placer() != nil) != (s == SchemeSilo) {
			t.Errorf("%s: Placer() = %v", s, c.Placer())
		}
		nw := netsim.Build(netsim.NewSim(), tree, s.NetOptions())
		f := transport.NewFabric(nw)
		g, err := c.Admit(classASpec(4))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		be, err := c.Admit(tenant.Spec{Name: "be", VMs: 3, Class: tenant.ClassBestEffort})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, ep := range c.Deploy(nw, f, g, 1000, s.TransportOptions()) {
			if ep.Options().Paced != s.Paced() {
				t.Errorf("%s: guaranteed endpoint paced = %v", s, ep.Options().Paced)
			}
		}
		for i, id := range g.VMIDs {
			if _, ok := nw.Hosts[g.Placement.Servers[i]].VM(id); ok != s.Paced() {
				t.Errorf("%s: pacer VM %d present = %v", s, id, ok)
			}
		}
		for _, ep := range c.Deploy(nw, f, be, 2000, s.TransportOptions()) {
			if ep.Options().Paced || ep.Options().Prio != netsim.PrioBestEffort {
				t.Errorf("%s: best-effort endpoint options %+v", s, ep.Options())
			}
		}
		for i, id := range be.VMIDs {
			if _, ok := nw.Hosts[be.Placement.Servers[i]].VM(id); ok {
				t.Errorf("%s: best-effort VM %d has a pacer", s, id)
			}
		}
	}
}

// The two static fixed points: peak installs the full B on every pair
// of the pattern, fair share installs what pacer.HoseAllocate computes.
func TestCoordinateHoseFixedPoints(t *testing.T) {
	tree := testTree(t)
	c := New(tree, placement.Options{})
	h, err := c.Admit(classASpec(5))
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.Build(netsim.NewSim(), tree, SchemeSilo.NetOptions())
	c.Deploy(nw, transport.NewFabric(nw), h, 1000, transport.Options{})
	b := h.Spec.Guarantee.BandwidthBps
	rate := func(src, dst int) float64 {
		vm, ok := nw.Hosts[h.Placement.Servers[src]].VM(h.VMIDs[src])
		if !ok {
			t.Fatalf("VM %d not paced", src)
		}
		return vm.DestRate(h.VMIDs[dst])
	}

	pat := workload.AllToAll(5)
	c.CoordinateHosePeak(nw, h, pat)
	for src, dsts := range pat {
		for _, dst := range dsts {
			if got := rate(src, dst); got != b {
				t.Errorf("peak %d->%d = %v, want %v", src, dst, got, b)
			}
		}
	}

	pat = workload.AllToOne(5)
	c.CoordinateHose(nw, h, pat)
	send, recv := map[int]float64{}, map[int]float64{}
	var flows []pacer.Flow
	for src, dsts := range pat {
		for _, dst := range dsts {
			send[h.VMIDs[src]], recv[h.VMIDs[dst]] = b, b
			flows = append(flows, pacer.Flow{Src: h.VMIDs[src], Dst: h.VMIDs[dst]})
		}
	}
	want := pacer.HoseAllocate(send, recv, flows)
	for src, dsts := range pat {
		for _, dst := range dsts {
			fl := pacer.Flow{Src: h.VMIDs[src], Dst: h.VMIDs[dst]}
			if got := rate(src, dst); got != want[fl] || got != b/4 {
				t.Errorf("fair %d->%d = %v, want %v (= B/4)", src, dst, got, want[fl])
			}
		}
	}
}

// VM ids resolve to tenants from what Deploy handed out: adjacent
// bases resolve exactly, unknown ids do not resolve, and after a
// drill-style re-deploy (the tenant adopted again on new servers, under
// new ids) both epochs' ids stay attributed — packets of the old
// deployment still in flight are still the tenant's.
func TestTenantOfVM(t *testing.T) {
	tree := testTree(t)
	c := New(tree, placement.Options{})
	nw := netsim.Build(netsim.NewSim(), tree, SchemeSilo.NetOptions())
	f := transport.NewFabric(nw)
	a, err := c.Admit(classASpec(12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Admit(classASpec(4))
	if err != nil {
		t.Fatal(err)
	}
	c.Deploy(nw, f, a, 1000, transport.Options{}) // 1000–1011
	c.Deploy(nw, f, b, 1012, transport.Options{}) // 1012–1015
	for vm, want := range map[int]int{1000: a.Spec.ID, 1011: a.Spec.ID, 1012: b.Spec.ID, 1015: b.Spec.ID} {
		if got, ok := c.TenantOfVM(vm); !ok || got != want {
			t.Errorf("TenantOfVM(%d) = %d, %v; want %d", vm, got, ok, want)
		}
	}
	for _, vm := range []int{-1, 0, 999, 1016, 2000} {
		if got, ok := c.TenantOfVM(vm); ok {
			t.Errorf("TenantOfVM(%d) = %d, want unknown", vm, got)
		}
	}

	moved := &tenant.Placement{Spec: b.Spec, Servers: []int{9, 9, 8, 8}}
	b2 := c.Adopt(moved)
	if b2.Spec.ID != b.Spec.ID || b2 == b {
		t.Fatalf("Adopt kept the caller's ID %d? got %d", b.Spec.ID, b2.Spec.ID)
	}
	c.Deploy(nw, f, b2, 1020, transport.Options{})
	for _, vm := range []int{1012, 1015, 1020, 1023} {
		if got, ok := c.TenantOfVM(vm); !ok || got != b.Spec.ID {
			t.Errorf("after redeploy TenantOfVM(%d) = %d, %v; want %d", vm, got, ok, b.Spec.ID)
		}
	}
	if err := c.Release(b2); err != nil {
		t.Fatalf("releasing the re-adopted tenant: %v", err)
	}
}
