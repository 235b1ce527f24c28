package placement

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// upCapClasses are six guarantees, more than the up-cap memo has slots.
// Bursts at up to line rate from two tenants on one server overflow its
// NIC-up port, so the memo both refuses and takes counts.
var upCapClasses = []tenant.Guarantee{
	{BandwidthBps: 0.25 * gbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: 1 * gbps},
	{BandwidthBps: 2 * gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * gbps},
	{BandwidthBps: 1 * gbps, BurstBytes: 60e3, BurstRateBps: 10 * gbps},
	{BandwidthBps: 0.5 * gbps, BurstBytes: 40e3, BurstRateBps: 0},
	{BandwidthBps: 1.5 * gbps, BurstBytes: 30e3, DelayBound: 2e-3, BurstRateBps: 8 * gbps},
	{BandwidthBps: 0.75 * gbps, BurstBytes: 50e3, BurstRateBps: 6 * gbps},
}

// upCapSpec draws a tenant of 2–15 VMs in one of upCapClasses.
func upCapSpec(rng *stats.Rand, id int) tenant.Spec {
	return tenant.Spec{
		ID: id, Name: "upcap", VMs: 2 + rng.Intn(14), FaultDomains: 1 + rng.Intn(2),
		Guarantee: upCapClasses[rng.Intn(len(upCapClasses))],
	}
}

// upFitsLinear is the NIC-up half of the per-server check as the probe
// made it before the memo: the request's cut of k VMs against the
// port's closed-form bound.
func upFitsLinear(m *Manager, s, k int) bool {
	up := m.tree.ServerUpPortID(s)
	c := m.memo.upC[k]
	return c.isZero() || queueBoundFast(m.portRate[up], &m.ports[up], c) <= m.portCap[up]+1e-12
}

// linearCap is maxVMsOnServer as it was before the up-cap memo: every
// count from the limit down, the NIC-up port and then the ToR-down port
// by the closed-form bound, until one fits both.
func linearCap(m *Manager, spec *tenant.Spec, s int, span scopeHeight) int {
	down := m.tree.RackDownPortID(s)
	for k := min(m.maxVMsByResources(spec, s), spec.VMs, m.memo.emptyMax[span]); k >= 1; k-- {
		c := m.memo.downC[span][k]
		if upFitsLinear(m, s, k) && (c.isZero() || queueBoundFast(m.portRate[down], &m.ports[down], c) <= m.portCap[down]+1e-12) {
			return k
		}
	}
	return 0
}

// Property: the per-server NIC-up cap memo changes no answer. On a small
// tree filled and churned by tenants of six classes, the Manager decides
// every request like the oracle, and after every operation, for tenants
// of every class and size, each server's cap at each span equals the
// linear scan's and no count the memo refuses fits the port. Every
// entry must also survive VerifyInvariants' re-derivation. Last, an
// entry that claims its port takes more than it does — what a bound that
// dips as k grows would leave — must be caught by the probe's
// confirming evaluation and by VerifyInvariants.
func TestUpCapMemoEquivalenceProperty(t *testing.T) {
	tree, err := topology.New(topology.Config{
		Pods: 2, RacksPerPod: 3, ServersPerRack: 4, SlotsPerServer: 8,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3, RackOversub: 5, PodOversub: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := tree.Config().SlotsPerServer
	var memoProbes, scanProbes, refused, overclaims int
	f := func(seed uint64, opsRaw uint8) bool {
		ref := newRefManager(tree, Options{})
		m := NewManager(tree, Options{})
		probe := stats.NewRand(seed + 1)
		check := func(ctx string) bool {
			for i := 0; i < 3; i++ {
				spec := upCapSpec(probe, 0)
				m.fillReqMemo(&spec)
				for span := scopeRack; span <= scopeDC; span++ {
					for s := 0; s < tree.Servers(); s++ {
						limit := min(m.maxVMsByResources(&spec, s), spec.VMs, m.memo.emptyMax[span])
						if 2*limit <= spec.VMs {
							memoProbes++
						} else {
							scanProbes++
						}
						if got, want := m.maxVMsOnServer(&spec, s, span), linearCap(m, &spec, s, span); got != want {
							t.Logf("%s: %d-VM tenant of %+v, server %d, %s span: cap %d, linear scan %d",
								ctx, spec.VMs, spec.Guarantee, s, spanName(span), got, want)
							return false
						}
					}
				}
				for s := 0; s < tree.Servers(); s++ {
					for k := 1; k <= min(slots, spec.VMs); k++ {
						if !m.upRefuses(s, k, k, spec.VMs) {
							continue
						}
						refused++
						if upFitsLinear(m, s, k) {
							t.Logf("%s: memo refuses %d VMs of %+v on server %d, the port takes them", ctx, k, spec.Guarantee, s)
							return false
						}
					}
				}
			}
			if err := m.VerifyInvariants(); err != nil {
				t.Logf("%s: %v", ctx, err)
				return false
			}
			return true
		}
		ok := replayChurn(seed, opsRaw, upCapSpec, func(i int, spec tenant.Spec) (bool, bool) {
			ctx := fmt.Sprintf("seed %#x ops %#x op %d", seed, opsRaw, i)
			plR, errR := ref.Place(spec)
			plM, errM := m.Place(spec)
			if err := samePlacement(plR, plM, errR, errM); err != nil {
				t.Logf("%s: %v (spec %+v)", ctx, err, spec)
				return false, false
			}
			return errM == nil, check(ctx)
		}, func(i, id int) bool {
			if errR, errM := ref.Remove(id), m.Remove(id); errR != nil || errM != nil {
				t.Logf("seed %#x ops %#x op %d: remove %d: ref %v, manager %v", seed, opsRaw, i, id, errR, errM)
				return false
			}
			return check(fmt.Sprintf("seed %#x ops %#x op %d", seed, opsRaw, i))
		})
		if !ok {
			return false
		}
		// Over-claim each entry of the last probe's class in turn.
		spec := upCapSpec(probe, 0)
		spec.VMs = 2 * slots
		m.fillReqMemo(&spec)
		caps := m.upCaps.caps[m.memo.upSlot]
		for s := 0; s < tree.Servers(); s++ {
			m.maxVMsOnServer(&spec, s, scopeDC) // fills the entry
			e := caps[s]
			known, fit := e>>8, e&0xff
			if fit == known {
				continue
			}
			caps[s] = known<<8 | known
			for span := scopeRack; span <= scopeDC; span++ {
				want := linearCap(m, &spec, s, span)
				if want < min(int(known), m.memo.emptyMax[span]) {
					overclaims++
				}
				if got := m.maxVMsOnServer(&spec, s, span); got != want {
					t.Logf("seed %#x: server %d entry over-claimed to %d of %d (truly %d): cap %d, linear scan %d",
						seed, s, known, known, fit, got, want)
					return false
				}
			}
			if m.VerifyInvariants() == nil {
				t.Logf("seed %#x: VerifyInvariants misses server %d's over-claimed entry", seed, s)
				return false
			}
			caps[s] = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if memoProbes == 0 || scanProbes == 0 || refused == 0 || overclaims == 0 {
		t.Errorf("the stream no longer reaches every path: %d probes up to n/2, %d above, %d memo refusals, %d live over-claims",
			memoProbes, scanProbes, refused, overclaims)
	}
	t.Logf("%d probes up to n/2, %d above, %d memo refusals, %d live over-claims", memoProbes, scanProbes, refused, overclaims)
}
