package placement

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// Property: under arbitrary admit/remove interleavings, the manager's
// incremental port state always equals a from-scratch recomputation,
// and no admitted set ever violates constraint 1 — checked after every
// operation, so a violation a later removal would hide is still caught.
func TestRandomChurnInvariantsProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		tree := mustSmallTree()
		m := NewManager(tree, Options{})
		verify := invariantChecker(t, m, seed, opsRaw)
		rng := stats.NewRand(seed)
		ops := int(opsRaw)%40 + 10
		live := []int{}
		nextID := 1
		for i := 0; i < ops; i++ {
			if len(live) > 0 && rng.Float64() < 0.4 {
				idx := rng.Intn(len(live))
				if err := m.Remove(live[idx]); err != nil {
					return false
				}
				if !verify("op %d: remove %d", i, live[idx]) {
					return false
				}
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			vms := 1 + rng.Intn(8)
			fd := 1 + rng.Intn(3)
			if fd > vms {
				fd = vms
			}
			spec := tenant.Spec{
				ID:   nextID,
				Name: "churn",
				VMs:  vms,
				Guarantee: tenant.Guarantee{
					BandwidthBps: float64(1+rng.Intn(20)) * 100 * mbps,
					BurstBytes:   float64(1+rng.Intn(10)) * 3e3,
					DelayBound:   float64(rng.Intn(3)) * 1e-3, // 0, 1ms or 2ms
					BurstRateBps: 10 * gbps,
				},
				FaultDomains: fd,
			}
			nextID++
			if _, err := m.Place(spec); err == nil {
				live = append(live, spec.ID)
			}
			if !verify("op %d: place %d", i, spec.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// invariantChecker returns the per-operation VerifyInvariants call of
// the churn properties: it logs the input and the step that broke the
// invariants and reports whether they hold.
func invariantChecker(t *testing.T, m *Manager, seed uint64, opsRaw uint8) func(step string, args ...any) bool {
	return func(step string, args ...any) bool {
		err := m.VerifyInvariants()
		if err != nil {
			t.Logf("seed %#x ops %#x, after %s: %v", seed, opsRaw, fmt.Sprintf(step, args...), err)
		}
		return err == nil
	}
}

// Property: a place→fail→recover→remove loop preserves the manager's
// invariants after every operation, no tenant is ever silently lost (every
// affected tenant gets a verdict; the relocated/degraded ones stay
// admitted, the evicted ones are gone), and after full teardown no
// port contribution leaks.
func TestFailRecoverChurnProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		tree := mustSmallTree()
		m := NewManager(tree, Options{})
		verify := invariantChecker(t, m, seed, opsRaw)
		rng := stats.NewRand(seed)
		rounds := int(opsRaw)%6 + 2
		nextID := 1
		for round := 0; round < rounds; round++ {
			// Admit a random batch.
			for i := 0; i < 4+rng.Intn(6); i++ {
				vms := 1 + rng.Intn(6)
				fd := 1 + rng.Intn(2)
				if fd > vms {
					fd = vms
				}
				spec := tenant.Spec{
					ID:   nextID,
					Name: "churn",
					VMs:  vms,
					Guarantee: tenant.Guarantee{
						BandwidthBps: float64(1+rng.Intn(10)) * 100 * mbps,
						BurstBytes:   float64(1+rng.Intn(10)) * 3e3,
						DelayBound:   float64(rng.Intn(3)) * 1e-3,
						BurstRateBps: 10 * gbps,
					},
					FaultDomains: fd,
				}
				nextID++
				m.Place(spec)
				if !verify("round %d: place %d", round, spec.ID) {
					return false
				}
			}
			// Fail 1-2 random servers and recover.
			before := m.AdmittedIDs()
			nFail := 1 + rng.Intn(2)
			failed := make([]int, 0, nFail)
			for len(failed) < nFail {
				s := rng.Intn(tree.Servers())
				if !m.ServerFailed(s) {
					failed = append(failed, s)
				}
			}
			rep := m.Recover(failed, nil, RecoverOptions{})
			if rep.Relocated+rep.Degraded+rep.Evicted != len(rep.Affected) {
				t.Logf("verdicts don't cover affected: %+v", rep)
				return false
			}
			// No silent loss: every previously admitted tenant is
			// either still admitted or explicitly evicted.
			evicted := map[int]bool{}
			for _, tr := range rep.Affected {
				if tr.Verdict == VerdictEvicted {
					evicted[tr.ID] = true
				}
			}
			after := map[int]bool{}
			for _, id := range m.AdmittedIDs() {
				after[id] = true
			}
			for _, id := range before {
				if !after[id] && !evicted[id] {
					t.Logf("tenant %d vanished without a verdict", id)
					return false
				}
				if after[id] && evicted[id] {
					t.Logf("tenant %d evicted but still admitted", id)
					return false
				}
			}
			// No recovered tenant may sit on a failed server.
			for _, tr := range rep.Affected {
				for _, s := range tr.NewServers {
					if m.ServerFailed(s) {
						t.Logf("tenant %d recovered onto failed server %d", tr.ID, s)
						return false
					}
				}
			}
			if !verify("round %d: recover %v", round, failed) {
				return false
			}
			// Occasionally repair some servers.
			if rng.Float64() < 0.5 {
				for _, s := range failed {
					m.RestoreServers(s)
					if !verify("round %d: restore %d", round, s) {
						return false
					}
				}
			}
			// Random removals, including removals while servers are
			// still failed (slots must park in hidden, not leak).
			for _, id := range m.AdmittedIDs() {
				if rng.Float64() < 0.3 {
					if err := m.Remove(id); err != nil {
						return false
					}
					if !verify("round %d: remove %d", round, id) {
						return false
					}
				}
			}
		}
		// Full teardown: zero leaked port contributions.
		for _, id := range m.AdmittedIDs() {
			if err := m.Remove(id); err != nil {
				return false
			}
			if !verify("teardown: remove %d", id) {
				return false
			}
		}
		for s := 0; s < tree.Servers(); s++ {
			m.RestoreServers(s)
		}
		if !verify("teardown: restore all") {
			return false
		}
		for pid := range m.ports {
			if m.ports[pid].tenants != 0 || m.ports[pid].Rate != 0 || m.ports[pid].Burst != 0 {
				t.Logf("port %d leaked contributions after teardown: %+v", pid, m.ports[pid])
				return false
			}
		}
		// All slots back.
		if m.ix.totalFree != tree.Slots() {
			t.Logf("slot leak: %d free, want %d", m.ix.totalFree, tree.Slots())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func mustSmallTree() *topology.Tree {
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
		panic(err)
	}
	return tree
}
