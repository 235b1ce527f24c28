package placement

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/tenant"
	"repro/internal/topology"
)

const (
	mbps = 1e6 / 8
	gbps = 1e9 / 8
)

// fig5Tree builds the Figure-5 cluster: three servers under one
// 10 Gbps ToR switch. Switch buffers are 375 KB (the paper's 300 KB
// illustration ignores token refill during the burst; see
// EXPERIMENTS.md) and the NIC queue capacity is one 50 µs pacer batch.
func fig5Tree(t *testing.T) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           1,
		RacksPerPod:    1,
		ServersPerRack: 3,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    375e3,
		NICBufferBytes: 50e-6 * 10 * gbps, // 62.5 KB = 50 µs at 10 Gbps
		RackOversub:    1,
		PodOversub:     1,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return tree
}

func fig5Spec(id int) tenant.Spec {
	return tenant.Spec{
		ID:   id,
		Name: "fig5",
		VMs:  9,
		Guarantee: tenant.Guarantee{
			BandwidthBps: 1 * gbps,
			BurstBytes:   100e3,
			DelayBound:   1e-3,
			BurstRateBps: 10 * gbps,
		},
	}
}

func TestFigure5SiloSpreadsVMs(t *testing.T) {
	tree := fig5Tree(t)
	m := NewManager(tree, Options{})
	pl, err := m.Place(fig5Spec(1))
	if err != nil {
		t.Fatalf("Silo rejected the Figure-5 tenant: %v", err)
	}
	// Silo must spread 3/3/3, never 4/4/1 (paper Figure 5b).
	for s := 0; s < 3; s++ {
		if got := pl.VMsOnServer(s); got != 3 {
			t.Errorf("server %d hosts %d VMs, want 3 (placement %v)", s, got, pl.Servers)
		}
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Errorf("invariants violated: %v", err)
	}
}

func TestFigure5OktopusPacks(t *testing.T) {
	tree := fig5Tree(t)
	o := NewOktopus(tree)
	pl, err := o.Place(fig5Spec(1))
	if err != nil {
		t.Fatalf("Oktopus rejected: %v", err)
	}
	// Bandwidth-aware placement packs greedily: 4/4/1 (paper Figure
	// 5a) — the layout whose simultaneous bursts overflow the buffer.
	if got := pl.VMsOnServer(0); got != 4 {
		t.Errorf("server 0 hosts %d VMs, want 4 (placement %v)", got, pl.Servers)
	}
	if got := pl.VMsOnServer(2); got != 1 {
		t.Errorf("server 2 hosts %d VMs, want 1", got)
	}
}

func TestFigure5OktopusLayoutOverflowsUnderSilo(t *testing.T) {
	// The 4/4/1 layout must violate Silo's queuing constraint: that is
	// the point of Figure 5.
	tree := fig5Tree(t)
	m := NewManager(tree, Options{})
	spec := fig5Spec(1)
	if m.layoutValid(&spec, &searchScratch{srv: []int{0, 1, 2}, cnt: []int{4, 4, 1}}, nil) {
		t.Error("Silo accepted the 4/4/1 layout; it must violate constraint 1")
	}
	if !m.layoutValid(&spec, &searchScratch{srv: []int{0, 1, 2}, cnt: []int{3, 3, 3}}, nil) {
		t.Error("Silo rejected the 3/3/3 layout; it must satisfy both constraints")
	}
}

func smallTree(t *testing.T) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           2,
		RacksPerPod:    2,
		ServersPerRack: 4,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    2,
		PodOversub:     2,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return tree
}

func guaranteedSpec(id, vms int, b float64) tenant.Spec {
	return tenant.Spec{
		ID:   id,
		Name: "t",
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: b,
			BurstBytes:   15e3,
			DelayBound:   2e-3,
			BurstRateBps: 1 * gbps,
		},
	}
}

func TestPlaceSingleServerNoNetwork(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	pl, err := m.Place(guaranteedSpec(1, 3, 100*mbps))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(pl.DistinctServers()) != 1 {
		t.Errorf("3 VMs should fit one server, got %v", pl.Servers)
	}
	// No network contribution for a single-server tenant.
	for pid := 0; pid < tree.NumPorts(); pid++ {
		if b := m.QueueBound(pid); b != 0 {
			t.Errorf("port %d has nonzero bound %v for intra-server tenant", pid, b)
		}
	}
}

func TestPlaceRespectsSlots(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	if _, err := m.Place(guaranteedSpec(1, tree.Slots()+1, mbps)); err == nil {
		t.Error("oversized tenant accepted")
	}
	if !errors.Is(mustErr(t, m, guaranteedSpec(2, tree.Slots()+1, mbps)), ErrRejected) {
		t.Error("rejection should wrap ErrRejected")
	}
}

func mustErr(t *testing.T, alg Algorithm, spec tenant.Spec) error {
	t.Helper()
	_, err := alg.Place(spec)
	if err == nil {
		t.Fatal("expected error")
	}
	return err
}

func TestPlaceDuplicateID(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	if _, err := m.Place(guaranteedSpec(7, 2, mbps)); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if _, err := m.Place(guaranteedSpec(7, 2, mbps)); err == nil {
		t.Error("duplicate tenant ID accepted")
	}
}

func TestPlaceInvalidSpec(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	if _, err := m.Place(tenant.Spec{ID: 1, VMs: 0}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestRemoveRestoresState(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	// Force a multi-server placement via fault domains.
	spec := guaranteedSpec(1, 8, 200*mbps)
	spec.FaultDomains = 4
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(pl.DistinctServers()) < 4 {
		t.Fatalf("fault domains ignored: %v", pl.Servers)
	}
	if err := m.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for pid := 0; pid < tree.NumPorts(); pid++ {
		if b := m.QueueBound(pid); b != 0 {
			t.Errorf("port %d bound %v after removal, want 0", pid, b)
		}
	}
	for s := 0; s < tree.Servers(); s++ {
		if m.FreeSlots(s) != tree.Config().SlotsPerServer {
			t.Errorf("server %d slots not restored", s)
		}
	}
	if err := m.Remove(1); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("double Remove = %v, want ErrUnknownTenant", err)
	}
}

func TestDelayConstraintLimitsScope(t *testing.T) {
	tree := smallTree(t)
	// Queue capacity per switch port: 312KB/10Gbps = 249.6 µs; NIC
	// 50 µs. Rack-scope worst path = 50+249.6 = 299.6 µs. Pod scope
	// adds rackUp(2x oversub -> 20 Gbps... ServersPerRack=4, so rack
	// uplink = 4*10/2 = 20 Gbps, qc = 124.8 µs) + podDown: worst path
	// = 50+124.8+124.8+249.6 = 549.2 µs.
	m := NewManager(tree, Options{})
	// d = 400 µs permits rack scope only: a tenant too big for one
	// rack must be rejected even though slots are free elsewhere.
	spec := tenant.Spec{
		ID: 1, Name: "tight", VMs: 20,
		Guarantee: tenant.Guarantee{
			BandwidthBps: 10 * mbps, BurstBytes: 1500,
			DelayBound: 400e-6, BurstRateBps: gbps,
		},
	}
	if _, err := m.Place(spec); !errors.Is(err, ErrRejected) {
		t.Errorf("20 VMs with 400µs delay bound should be rejected (rack holds 16 slots), got %v", err)
	}
	// Same tenant with a relaxed bound fits across racks.
	spec.ID = 2
	spec.Guarantee.DelayBound = 1e-3
	if _, err := m.Place(spec); err != nil {
		t.Errorf("relaxed tenant rejected: %v", err)
	}
}

func TestBandwidthAdmissionLimit(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	// Each tenant: 8 VMs spanning two servers minimum... use fault
	// domains to force network usage; B = 2.5 Gbps per VM means a
	// server NIC (10 Gbps) saturates quickly.
	accepted := 0
	for id := 0; id < 64; id++ {
		spec := tenant.Spec{
			ID: id, Name: "big", VMs: 4, FaultDomains: 2,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 2.5 * gbps, BurstBytes: 1500,
				BurstRateBps: 10 * gbps,
			},
		}
		if _, err := m.Place(spec); err == nil {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no tenant accepted")
	}
	if accepted == 64 {
		t.Fatal("all tenants accepted; bandwidth constraint not enforced")
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestBestEffortBypassesConstraints(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	// A best-effort tenant with absurd "guarantees" is placed anyway.
	spec := tenant.Spec{
		ID: 1, Name: "be", VMs: 6, Class: tenant.ClassBestEffort,
	}
	if _, err := m.Place(spec); err != nil {
		t.Fatalf("best-effort rejected: %v", err)
	}
	for pid := 0; pid < tree.NumPorts(); pid++ {
		if m.QueueBound(pid) != 0 {
			t.Error("best-effort tenant contributed to port state")
		}
	}
	if err := m.Remove(1); err != nil {
		t.Errorf("Remove best-effort: %v", err)
	}
}

func TestChurnInvariants(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	// Admit and remove tenants in a deterministic interleaving and
	// verify port state never drifts.
	live := map[int]bool{}
	for i := 0; i < 60; i++ {
		id := i
		spec := guaranteedSpec(id, 1+(i%6), float64(50+(i%5)*50)*mbps)
		spec.FaultDomains = 1 + i%3
		if spec.FaultDomains > spec.VMs {
			spec.FaultDomains = spec.VMs
		}
		if _, err := m.Place(spec); err == nil {
			live[id] = true
		}
		if i%3 == 2 {
			for id2 := range live {
				if err := m.Remove(id2); err != nil {
					t.Fatalf("Remove(%d): %v", id2, err)
				}
				delete(live, id2)
				break
			}
		}
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Errorf("invariants after churn: %v", err)
	}
}

// VerifyInvariants must notice each of a port's maintained scalars
// drifting from the admitted set, Seed included — with the peak line
// able to be the whole curve, it is what the bound divides.
func TestVerifyInvariantsCatchesScalarDrift(t *testing.T) {
	m := NewManager(fig5Tree(t), Options{})
	if _, err := m.Place(fig5Spec(1)); err != nil {
		t.Fatal(err)
	}
	pid := m.tree.ServerUpPortID(0)
	if m.ports[pid].tenants == 0 {
		t.Fatal("tenant does not cross server 0's NIC-up port")
	}
	for name, field := range map[string]*float64{
		"Rate": &m.ports[pid].Rate, "Burst": &m.ports[pid].Burst,
		"Peak": &m.ports[pid].Peak, "Seed": &m.ports[pid].Seed,
	} {
		was := *field
		*field += 1
		m.portTouched(pid) // keep the bound cache in step: only the scalar drifts
		if err := m.VerifyInvariants(); err == nil || !strings.Contains(err.Error(), "state drift") {
			t.Errorf("%s off by one: VerifyInvariants = %v, want a state drift error", name, err)
		}
		*field = was
		m.portTouched(pid)
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAccountingCounters(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	if _, err := m.Place(guaranteedSpec(1, 2, mbps)); err != nil {
		t.Fatal(err)
	}
	mustErr(t, m, guaranteedSpec(2, tree.Slots()+1, mbps))
	if m.Accepted() != 1 || m.Rejected() != 1 {
		t.Errorf("counters = %d/%d, want 1/1", m.Accepted(), m.Rejected())
	}
}

func TestPlacementLookup(t *testing.T) {
	tree := smallTree(t)
	m := NewManager(tree, Options{})
	if _, ok := m.Placement(5); ok {
		t.Error("lookup of absent tenant succeeded")
	}
	if _, err := m.Place(guaranteedSpec(5, 2, mbps)); err != nil {
		t.Fatal(err)
	}
	if pl, ok := m.Placement(5); !ok || pl.Spec.ID != 5 {
		t.Error("lookup of admitted tenant failed")
	}
}

func TestHoseAblationAdmitsFewer(t *testing.T) {
	// Plain aggregation inflates cut rates (m·B instead of
	// min(m,N−m)·B), so it must never admit more than hose
	// aggregation.
	treeA := smallTree(t)
	treeB := smallTree(t)
	hose := NewManager(treeA, Options{})
	plain := NewManager(treeB, Options{PlainAggregation: true})
	hoseOK, plainOK := 0, 0
	for id := 0; id < 48; id++ {
		spec := tenant.Spec{
			ID: id, Name: "abl", VMs: 6, FaultDomains: 3,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 1.2 * gbps, BurstBytes: 3000,
				BurstRateBps: 10 * gbps,
			},
		}
		if _, err := hose.Place(spec); err == nil {
			hoseOK++
		}
		if _, err := plain.Place(spec); err == nil {
			plainOK++
		}
	}
	if plainOK > hoseOK {
		t.Errorf("plain aggregation admitted %d > hose %d", plainOK, hoseOK)
	}
	if hoseOK == 0 {
		t.Error("hose aggregation admitted nothing")
	}
}
