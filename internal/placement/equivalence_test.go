package placement

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tenant"
)

// randomSpec draws a tenant spec with varied guarantees, including the
// occasional best-effort tenant, delay-bounded tenants and single-VM
// tenants (which put no traffic on the network).
func randomSpec(rng *stats.Rand, id int) tenant.Spec {
	vms := 1 + rng.Intn(10)
	fd := 1 + rng.Intn(3)
	if fd > vms {
		fd = vms
	}
	spec := tenant.Spec{
		ID:   id,
		Name: "equiv",
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: float64(1+rng.Intn(30)) * 100 * mbps,
			BurstBytes:   float64(1+rng.Intn(12)) * 2.5e3,
			DelayBound:   float64(rng.Intn(4)) * 5e-4, // 0 .. 1.5ms
			BurstRateBps: float64(1+rng.Intn(10)) * gbps,
		},
		FaultDomains: fd,
	}
	if rng.Float64() < 0.15 {
		spec.Class = tenant.ClassBestEffort
	}
	return spec
}

// replayChurn drives the equivalence properties' operation stream: 20 to
// 69 operations, each a removal of a random live tenant (35 %) or a
// request drawn by draw. place reports whether the tenant was admitted
// and, like remove, whether to go on; replayChurn reports whether it ran
// to the end.
func replayChurn(seed uint64, opsRaw uint8, draw func(rng *stats.Rand, id int) tenant.Spec,
	place func(op int, spec tenant.Spec) (admitted, ok bool), remove func(op, id int) bool) bool {
	rng := stats.NewRand(seed)
	ops := int(opsRaw)%50 + 20
	live := []int{}
	nextID := 1
	for i := 0; i < ops; i++ {
		if len(live) > 0 && rng.Float64() < 0.35 {
			idx := rng.Intn(len(live))
			if !remove(i, live[idx]) {
				return false
			}
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		spec := draw(rng, nextID)
		nextID++
		admitted, ok := place(i, spec)
		if !ok {
			return false
		}
		if admitted {
			live = append(live, spec.ID)
		}
	}
	return true
}

// churnRegressions are inputs on which the properties below failed
// before the rate-capped curve had one definition: a neighbour's
// departure dropped a port's summed peak to its summed rate, and the
// old token-bucket fallback then bound the tenants left behind 20×
// looser than it had when it admitted them.
var churnRegressions = []struct {
	seed uint64
	ops  uint8
}{
	{0x7374c789fc6d7c85, 0xfc}, // tenant 11 alone on NIC-up port 0: 72 µs > 50 µs
	{0x61eb4e3538b3d32, 0x5f},  // port 12: 60 µs > 50 µs
}

// Property: replaying any request/removal sequence through the
// reference admission path (refManager: curve-materializing bounds,
// serial scan, no memoization or scope skipping) and through the
// Manager (closed-form bounds, memoized contributions and up caps,
// untouched scopes collapsed) yields identical accept/reject
// decisions, identical server assignments, per-port queue bounds that
// agree to 1e-9 seconds, and invariants that hold after every single
// operation on both.
func TestFastPathEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		tree := mustSmallTree()
		ref := newRefManager(tree, Options{})
		fast := NewManager(tree, Options{})
		verify := func(op int, what string) bool {
			if err := ref.VerifyInvariants(); err != nil {
				t.Logf("seed %#x ops %#x op %d (%s): ref invariants: %v", seed, opsRaw, op, what, err)
				return false
			}
			if err := fast.VerifyInvariants(); err != nil {
				t.Logf("seed %#x ops %#x op %d (%s): fast invariants: %v", seed, opsRaw, op, what, err)
				return false
			}
			return true
		}
		ok := replayChurn(seed, opsRaw, randomSpec, func(i int, spec tenant.Spec) (bool, bool) {
			plRef, errRef := ref.Place(spec)
			plFast, errFast := fast.Place(spec)
			if err := samePlacement(plRef, plFast, errRef, errFast); err != nil {
				t.Logf("seed %#x ops %#x op %d: %v (spec %+v)", seed, opsRaw, i, err, spec)
				return false, false
			}
			return errRef == nil, verify(i, fmt.Sprintf("place %d", spec.ID))
		}, func(i, id int) bool {
			if errRef, errFast := ref.Remove(id), fast.Remove(id); errRef != nil || errFast != nil {
				t.Logf("seed %#x ops %#x op %d: remove %d: ref %v, fast %v", seed, opsRaw, i, id, errRef, errFast)
				return false
			}
			return verify(i, fmt.Sprintf("remove %d", id))
		})
		if !ok {
			return false
		}
		for pid := 0; pid < tree.NumPorts(); pid++ {
			br, bf := ref.QueueBound(pid), fast.QueueBound(pid)
			if math.IsInf(br, 1) != math.IsInf(bf, 1) {
				t.Logf("seed %#x: port %d bound infinity mismatch: ref %v fast %v", seed, pid, br, bf)
				return false
			}
			if !math.IsInf(br, 1) && math.Abs(br-bf) > 1e-9 {
				t.Logf("seed %#x: port %d bound drift: ref %v fast %v", seed, pid, br, bf)
				return false
			}
		}
		return true
	}
	for _, in := range churnRegressions {
		if !f(in.seed, in.ops) {
			t.Errorf("regression input %#x, %#x failed", in.seed, in.ops)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: admission is monotone in the neighbours. The layout a
// tenant was admitted with beside whatever else the tree held also
// passes the full constraint check on an empty manager over the same
// tree — nothing is admitted in company that would be refused alone,
// which is what makes a neighbour's departure safe.
func TestAdmittedLayoutValidAloneMonotoneProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		tree := mustSmallTree()
		m := NewManager(tree, Options{})
		empty := NewManager(tree, Options{})
		return replayChurn(seed, opsRaw, randomSpec, func(i int, spec tenant.Spec) (bool, bool) {
			pl, err := m.Place(spec)
			if err != nil || spec.Class == tenant.ClassBestEffort {
				return err == nil, true
			}
			lay := newLayout(tree, pl.Servers)
			if !empty.layoutValid(&spec, &searchScratch{srv: lay.servers, cnt: lay.serverCnt}, nil) {
				t.Logf("seed %#x ops %#x op %d: tenant %d admitted on %v beside neighbours, refused there alone (spec %+v)",
					seed, opsRaw, i, spec.ID, pl.Servers, spec)
				return true, false
			}
			return true, true
		}, func(_, id int) bool { return m.Remove(id) == nil })
	}
	for _, in := range churnRegressions {
		if !f(in.seed, in.ops) {
			t.Errorf("regression input %#x, %#x failed", in.seed, in.ops)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the ablation that routes constraint 2 through live queue
// bounds exercises the cached-bound path; it must agree with the
// reference too.
func TestFastPathEquivalenceDelayBoundAblation(t *testing.T) {
	f := func(seed uint64) bool {
		tree := mustSmallTree()
		ref := newRefManager(tree, Options{DelayCheckUsesBound: true})
		fast := NewManager(tree, Options{DelayCheckUsesBound: true})
		rng := stats.NewRand(seed)
		for id := 1; id <= 40; id++ {
			spec := randomSpec(rng, id)
			spec.Guarantee.DelayBound = float64(1+rng.Intn(4)) * 5e-4
			_, errRef := ref.Place(spec)
			_, errFast := fast.Place(spec)
			if (errRef == nil) != (errFast == nil) {
				t.Logf("seed %d id %d: decisions differ: ref err %v, fast err %v", seed, id, errRef, errFast)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
