package placement

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tenant"
)

// Property: the mutations a manager logs, replayed through Apply into a
// fresh manager over the same tree, rebuild it exactly. The stream mixes
// guaranteed and best-effort tenants (rejects among both), removals,
// Recover, FailServers and RestoreServers; afterwards every port's queue
// bound, every server's free slots, the admitted set and placements, the
// admission counters and the failed servers agree, and both managers
// pass VerifyInvariants. Apply must not fire the replay manager's hook.
func TestApplyReplayEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		tree := wideTree(t, 2, 3, 4)
		live := NewManager(tree, Options{})
		var log []Mutation
		live.SetCommitHook(func(mut *Mutation) error {
			cp := *mut
			cp.Servers = slices.Clone(mut.Servers)
			log = append(log, cp)
			return nil
		})
		fail := func(format string, args ...any) bool {
			t.Logf("seed %#x ops %#x: "+format, append([]any{seed, opsRaw}, args...)...)
			return false
		}
		rng := stats.NewRand(seed)
		for i, id := 0, 1; i < int(opsRaw)%80+20; i++ {
			switch x := rng.Float64(); {
			case x < 0.45:
				live.Place(wideSpec(rng, id))
				id++
			case x < 0.55:
				live.Place(tenant.Spec{ID: id, Name: "be", VMs: 1 + rng.Intn(30), Class: tenant.ClassBestEffort})
				id++
			case x < 0.70:
				if ids := live.AdmittedIDs(); len(ids) > 0 {
					if err := live.Remove(ids[rng.Intn(len(ids))]); err != nil {
						return fail("op %d: remove: %v", i, err)
					}
				}
			case x < 0.80:
				if s := rng.Intn(tree.Servers()); !live.ServerFailed(s) {
					if _, err := live.Recover([]int{s}, nil); err != nil {
						return fail("op %d: recover %d: %v", i, s, err)
					}
				}
			case x < 0.88:
				if err := live.FailServers(rng.Intn(tree.Servers())); err != nil {
					return fail("op %d: fail: %v", i, err)
				}
			default:
				if err := live.RestoreServers(live.FailedServerIDs()...); err != nil {
					return fail("op %d: restore: %v", i, err)
				}
			}
		}

		replay := NewManager(tree, Options{})
		replay.SetCommitHook(func(mut *Mutation) error {
			t.Errorf("Apply fired the commit hook with a %s", mut.Op)
			return nil
		})
		for i := range log {
			if err := replay.Apply(&log[i]); err != nil {
				return fail("record %d (%s): %v", i, log[i].Op, err)
			}
		}

		for pid := 0; pid < tree.NumPorts(); pid++ {
			if a, b := live.QueueBound(pid), replay.QueueBound(pid); a != b {
				return fail("port %d bound: live %v, replay %v", pid, a, b)
			}
		}
		for s := 0; s < tree.Servers(); s++ {
			if a, b := live.FreeSlots(s), replay.FreeSlots(s); a != b {
				return fail("server %d free slots: live %d, replay %d", s, a, b)
			}
		}
		ids := live.AdmittedIDs()
		if got := replay.AdmittedIDs(); !slices.Equal(ids, got) {
			return fail("admitted: live %v, replay %v", ids, got)
		}
		for _, id := range ids {
			a, _ := live.Placement(id)
			b, _ := replay.Placement(id)
			if a.Spec != b.Spec || !slices.Equal(a.Servers, b.Servers) {
				return fail("tenant %d: live %+v, replay %+v", id, a, b)
			}
		}
		if live.Accepted() != replay.Accepted() || live.Rejected() != replay.Rejected() {
			return fail("counters: live %d/%d, replay %d/%d",
				live.Accepted(), live.Rejected(), replay.Accepted(), replay.Rejected())
		}
		if a, b := live.FailedServerIDs(), replay.FailedServerIDs(); !slices.Equal(a, b) {
			return fail("failed servers: live %v, replay %v", a, b)
		}
		for _, m := range []*Manager{live, replay} {
			if err := m.VerifyInvariants(); err != nil {
				return fail("invariants: %v", err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
