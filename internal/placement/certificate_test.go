package placement

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netcal"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// drawCut draws a cut contribution the way admission builds them: a
// random cut of a 2–61 VM tenant with or without a burst allowance, a
// burst rate below, at or above its bandwidth, and any ingress cap and
// upstream inflation the tree produces.
func drawCut(rng *stats.Rand, m *Manager) contribution {
	n := 2 + rng.Intn(60)
	g := tenant.Guarantee{
		BandwidthBps: float64(1+rng.Intn(30)) * 100 * mbps,
		BurstBytes:   float64(rng.Intn(13)) * 2.5e3,
		BurstRateBps: float64(rng.Intn(11)) * gbps,
	}
	ingress := math.Inf(1)
	switch rng.Intn(3) {
	case 0:
		ingress = m.tree.Config().LinkBps
	case 1:
		ingress = float64(1+rng.Intn(8)) * m.tree.Config().LinkBps / 4
	}
	infl := m.inflation(scopeHeight(rng.Intn(3)), topology.Level(rng.Intn(4)), topology.Direction(rng.Intn(2)))
	return m.cutContribution(1+rng.Intn(n-1), n, g, ingress, infl)
}

// Property: a port's queue bound does not fall as what the port carries
// grows, beyond the rounding monoSlack grants. (1) Raising any one of
// rate, burst, peak or seed never lowers netcal.QueueBoundTwoPiece by
// more. (2) Hence, at any state a port reaches by admissions and
// removals — with the float residue removals leave — a contribution
// bounds at least as high as it does on the empty port, up to the
// same slack. (2) is the proof obligation of reqMemo.emptyMax: a VM
// count that overflows an empty server's ports overflows every loaded
// server's too, so the search certifies it once per request instead of
// probing it on every server.
//
// The exact bound is monotone (each piece of the rate-capped curve is
// one of two lines); the closed form is not to the last bit. Where the
// peak equals the service rate its knee term yx/R − tx cancels, and a
// raised rate moves only the rounding: 3.600000000000006 µs becomes
// 3.6 µs. The worst dip measured is 1.5e-12 of the bound, far inside
// monoSlack.
func TestQueueBoundMonotoneInPortLoadProperty(t *testing.T) {
	tree := mustSmallTree()
	managers := [2]*Manager{NewManager(tree, Options{}), NewManager(tree, Options{PlainAggregation: true})}
	// notBelow reports whether b is at least a, up to monoSlack.
	notBelow := func(b, a float64) bool { return b*(1+monoSlack) >= a }
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		m := managers[rng.Intn(2)]
		rate := tree.Port(rng.Intn(tree.NumPorts())).RateBps

		// (1) One scalar raised, by a neighbour's share or by a few ulps.
		base, more := drawCut(rng, m), drawCut(rng, m)
		before := netcal.QueueBoundTwoPiece(base.Rate, base.Burst, base.Peak, base.Seed, rate)
		for i := 0; i < 4; i++ {
			s := [4]float64{base.Rate, base.Burst, base.Peak, base.Seed}
			d := [4]float64{more.Rate, more.Burst, more.Peak, more.Seed}[i]
			if rng.Intn(2) == 0 {
				d = math.Abs(s[i]) * float64(1+rng.Intn(4)) * 0x1p-52
			}
			s[i] += d
			if after := netcal.QueueBoundTwoPiece(s[0], s[1], s[2], s[3], rate); !notBelow(after, before) {
				t.Logf("seed %#x: raising scalar %d of %+v by %v lowers the bound at %v B/s: %v -> %v",
					seed, i, base, d, rate, before, after)
				return false
			}
		}

		// (2) A port state reached by churn against the empty port.
		var st portState
		var live []contribution
		for op := 0; op < 1+rng.Intn(40); op++ {
			if len(live) > 0 && rng.Float64() < 0.4 {
				i := rng.Intn(len(live))
				st.remove(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			c := drawCut(rng, m)
			st.add(c)
			live = append(live, c)
		}
		for i := 0; i < 8; i++ {
			c := drawCut(rng, m)
			if loaded, empty := queueBoundFast(rate, st.contribution, c), queueBoundFast(rate, contribution{}, c); !notBelow(loaded, empty) {
				t.Logf("seed %#x: %+v bounds lower on %+v (%d live) than on the empty port at %v B/s: %v < %v",
					seed, c, st, len(live), rate, loaded, empty)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// burstySpec draws the tenants the certificate fires on: 2–60 VMs
// bursting 15 KB each, with d of 0 or 1 ms. Half are drawn from 16–27
// VMs, where on wideTree(2, 4, 4) a rack is too small and pod-scope
// caps fall from 4 to 0 as the tenant grows.
func burstySpec(rng *stats.Rand, id int) tenant.Spec {
	vms := 2 + rng.Intn(59)
	if rng.Intn(2) == 0 {
		vms = 16 + rng.Intn(12)
	}
	return tenant.Spec{
		ID:   id,
		Name: "bursty",
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: float64(1+rng.Intn(20)) * 50 * mbps,
			BurstBytes:   15e3,
			DelayBound:   float64(rng.Intn(2)) * 1e-3,
			BurstRateBps: float64(1+rng.Intn(10)) * gbps,
		},
		FaultDomains: 1 + rng.Intn(2),
	}
}

// Property: where the certificate fires, the Manager decides and
// explains exactly like the oracle, whose k-by-k probe of every server
// knows nothing of emptyMax. randomSpec draws at most 10 VMs and rarely
// gets there on a touched tree; burstySpec's tenants do, under churn, on
// a tree whose pods hold the largest of them. The stream must reach both
// requests whose scan the certificate skips (emptyMax 0) and requests
// whose probes it only shortens (0 < emptyMax < the request's largest
// count).
func TestCertifiedCapEquivalenceProperty(t *testing.T) {
	tree := wideTree(t, 2, 4, 4) // 16 slots a rack, 64 a pod
	skipped, shortened := 0, 0
	f := func(seed uint64, opsRaw uint8) bool {
		ref := newRefManager(tree, Options{})
		fast := NewManager(tree, Options{})
		ref.EnableJournal()
		fast.EnableJournal()
		ok := replayChurn(seed, opsRaw, burstySpec, func(i int, spec tenant.Spec) (bool, bool) {
			ctx := fmt.Sprintf("seed %#x ops %#x op %d", seed, opsRaw, i)
			// A request served by one server never fills the memo.
			fast.memo.emptyMax = [3]int{-1, -1, -1}
			plR, errR := ref.Place(spec)
			plF, errF := fast.Place(spec)
			if err := samePlacement(plR, plF, errR, errF); err != nil {
				t.Logf("%s: %v (spec %+v)", ctx, err, spec)
				return false, false
			}
			if fast.ix.totalFree < tree.Slots() {
				for _, k := range fast.memo.emptyMax {
					switch {
					case k == 0:
						skipped++
					case k > 0 && k < min(spec.VMs, tree.Config().SlotsPerServer):
						shortened++
					}
				}
			}
			if errF == nil {
				return true, true
			}
			df, _ := fast.Decision(spec.ID)
			dr, _ := ref.Decision(spec.ID)
			if df.Reason != dr.Reason || df.LimitingPort != dr.LimitingPort || math.Abs(df.LimitingBoundSec-dr.LimitingBoundSec) > 1e-9 {
				t.Logf("%s: explanations differ\nfast: %s (port %d, %v)\nref:  %s (port %d, %v)",
					ctx, df.Reason, df.LimitingPort, df.LimitingBoundSec, dr.Reason, dr.LimitingPort, dr.LimitingBoundSec)
				return false, false
			}
			return false, true
		}, func(i, id int) bool {
			if errR, errF := ref.Remove(id), fast.Remove(id); errR != nil || errF != nil {
				t.Logf("seed %#x ops %#x op %d: remove %d: ref %v, fast %v", seed, opsRaw, i, id, errR, errF)
				return false
			}
			return true
		})
		if err := fast.VerifyInvariants(); ok && err != nil {
			t.Logf("seed %#x ops %#x: %v", seed, opsRaw, err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if skipped == 0 || shortened == 0 {
		t.Errorf("the stream no longer exercises the certificate on a touched tree: %d span searches skipped, %d shortened",
			skipped, shortened)
	}
}
