package placement

import (
	"strings"
	"testing"

	"repro/internal/tenant"
)

// mustRecover runs Recover with the default ladder on a manager whose
// log cannot fail.
func mustRecover(t *testing.T, m *Manager, servers, ports []int) *RecoveryReport {
	t.Helper()
	rep, err := m.Recover(servers, ports)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func recoverSpec(id, vms int, bw, d float64) tenant.Spec {
	return tenant.Spec{
		ID:   id,
		Name: "t",
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: bw,
			BurstBytes:   15e3,
			DelayBound:   d,
			BurstRateBps: 10 * gbps,
		},
		FaultDomains: 2,
	}
}

// A host failure relocates the affected tenant onto surviving servers
// with its guarantee intact, and the manager's invariants hold.
func TestRecoverHostRelocates(t *testing.T) {
	tree := mustSmallTree()
	m := NewManager(tree, Options{})
	spec := recoverSpec(1, 4, 500*mbps, 1e-3)
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	failed := pl.Servers[0]
	rep := mustRecover(t, m, []int{failed}, nil)
	if len(rep.Affected) != 1 || rep.Relocated != 1 {
		t.Fatalf("report = %+v", rep)
	}
	tr := rep.Affected[0]
	if tr.Verdict != VerdictRelocated || tr.NewGuarantee != spec.Guarantee {
		t.Fatalf("tenant recovery = %+v", tr)
	}
	for _, s := range tr.NewServers {
		if s == failed {
			t.Fatalf("relocated onto the failed server %d", failed)
		}
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tenant is still admitted under its ID with the new placement.
	got, ok := m.Placement(1)
	if !ok {
		t.Fatal("tenant lost after relocation")
	}
	if len(got.Servers) != spec.VMs {
		t.Fatalf("placement has %d VMs, want %d", len(got.Servers), spec.VMs)
	}
}

// An unaffected tenant is not touched by recovery.
func TestRecoverLeavesUnaffectedAlone(t *testing.T) {
	tree := mustSmallTree()
	m := NewManager(tree, Options{})
	// Pin tenant 1 to a single server in rack 0 and tenant 2 elsewhere.
	a := recoverSpec(1, 2, 200*mbps, 1e-3)
	b := recoverSpec(2, 2, 200*mbps, 1e-3)
	pa, err := m.Place(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.Place(b)
	if err != nil {
		t.Fatal(err)
	}
	// Fail a server hosting tenant 1 but none of tenant 2's.
	var failed int = -1
	bset := map[int]bool{}
	for _, s := range pb.Servers {
		bset[s] = true
	}
	for _, s := range pa.Servers {
		if !bset[s] {
			failed = s
			break
		}
	}
	if failed < 0 {
		t.Skip("placements overlap completely; cannot isolate")
	}
	rep := mustRecover(t, m, []int{failed}, nil)
	for _, tr := range rep.Affected {
		if tr.ID == 2 {
			t.Fatal("unaffected tenant dragged into recovery")
		}
	}
	after, _ := m.Placement(2)
	for i, s := range after.Servers {
		if s != pb.Servers[i] {
			t.Fatal("unaffected tenant's placement changed")
		}
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// When the surviving fabric cannot host everyone at full guarantees,
// tenants degrade down the ladder (recorded explicitly) or evict, and
// nothing is silently lost.
func TestRecoverDegradesOrEvictsUnderPressure(t *testing.T) {
	tree := mustSmallTree() // 2 pods x 2 racks x 4 servers x 4 slots
	m := NewManager(tree, Options{})
	// Saturate: tenants big enough that losing a whole rack of slots
	// forces hard choices. 8 tenants x 7 VMs = 56 VMs of 64 slots.
	placed := 0
	for id := 1; id <= 8; id++ {
		if _, err := m.Place(recoverSpec(id, 7, 800*mbps, 1e-3)); err == nil {
			placed++
		}
	}
	if placed < 2 {
		t.Fatalf("setup: only %d tenants placed", placed)
	}
	// Fail rack 0 (servers 0-3) entirely.
	rep := mustRecover(t, m, []int{0, 1, 2, 3}, nil)
	if len(rep.Affected) == 0 {
		t.Fatal("no tenants affected by a whole-rack failure")
	}
	if rep.Relocated+rep.Degraded+rep.Evicted != len(rep.Affected) {
		t.Fatalf("verdicts don't cover affected: %+v", rep)
	}
	for _, tr := range rep.Affected {
		switch tr.Verdict {
		case VerdictDegraded:
			if tr.Degradation == "" {
				t.Fatalf("degraded tenant %d has no recorded rung", tr.ID)
			}
			if tr.NewGuarantee == tr.OldGuarantee {
				t.Fatalf("degraded tenant %d kept its old guarantee", tr.ID)
			}
		case VerdictEvicted:
			if _, ok := m.Placement(tr.ID); ok {
				t.Fatalf("evicted tenant %d still admitted", tr.ID)
			}
		case VerdictRelocated:
			if tr.NewGuarantee != tr.OldGuarantee {
				t.Fatalf("relocated tenant %d has a changed guarantee", tr.ID)
			}
		}
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	// Render is deterministic and names every verdict that occurred.
	out := mustRecover(t, m, nil, nil).Render()
	if !strings.Contains(out, "0 relocated, 0 degraded, 0 evicted") {
		t.Fatalf("empty recovery render: %q", out)
	}
}

// Recover finds tenants by port contribution, not just residency.
func TestRecoverPortFindsContributors(t *testing.T) {
	tree := mustSmallTree()
	m := NewManager(tree, Options{})
	spec := recoverSpec(1, 4, 500*mbps, 1e-3)
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The tenant contributes at its first server's NIC-up port.
	pid := tree.ServerUpPortID(pl.Servers[0])
	rep := mustRecover(t, m, nil, []int{pid})
	if len(rep.Affected) != 1 || rep.Affected[0].ID != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Restoring servers returns their slots, including slots freed while
// the server was down.
func TestRestoreServersRecoversHiddenSlots(t *testing.T) {
	tree := mustSmallTree()
	m := NewManager(tree, Options{})
	spec := recoverSpec(1, 4, 200*mbps, 0)
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.FailServers(pl.Servers...)
	// Remove while failed: freed slots must park, not resurface.
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	for _, s := range pl.Servers {
		if m.FreeSlots(s) != 0 {
			t.Fatalf("failed server %d shows %d free slots", s, m.FreeSlots(s))
		}
	}
	m.RestoreServers(pl.Servers...)
	cfg := tree.Config()
	for _, s := range pl.Servers {
		if m.FreeSlots(s) != cfg.SlotsPerServer {
			t.Fatalf("restored server %d has %d free slots, want %d", s, m.FreeSlots(s), cfg.SlotsPerServer)
		}
	}
	if m.ix.totalFree != tree.Slots() {
		t.Fatalf("total free %d, want %d", m.ix.totalFree, tree.Slots())
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}
