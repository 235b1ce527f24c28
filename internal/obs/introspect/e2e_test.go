package introspect_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs/introspect"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

const (
	gbps = 1e9 / 8
	mtu  = 1518
)

func fig5Tree(t *testing.T) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           1,
		RacksPerPod:    1,
		ServersPerRack: 3,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    375e3,
		NICBufferBytes: 50e-6 * 10 * gbps,
		RackOversub:    1,
		PodOversub:     1,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return tree
}

func fig5Spec() tenant.Spec {
	return tenant.Spec{
		ID:   1,
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

// runFig5 deploys the Figure-5 tenant under a scheme with the
// introspector attached and fires the synchronized all-to-one worst
// case for 20 ms.
func runFig5(t *testing.T, scheme core.Scheme) (*introspect.Introspector, *netsim.Network, func()) {
	t.Helper()
	tree := fig5Tree(t)
	spec := fig5Spec()
	// Silo's layout whatever the scheme deploys it as.
	m := placement.NewManager(tree, placement.Options{})
	ctl := core.NewWith(tree, scheme, m)
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatalf("place: %v", err)
	}

	nw := netsim.Build(netsim.NewSim(), tree, scheme.NetOptions())
	dep := ctl.Adopt(pl)
	ctl.Deploy(nw, transport.NewFabric(nw), dep, 1000, scheme.TransportOptions())

	in := introspect.Attach(nw, nil, introspect.Config{})
	adm := introspect.Envelope{RateBps: spec.Guarantee.BandwidthBps, BurstBytes: spec.Guarantee.BurstBytes}
	for i, vmID := range dep.VMIDs {
		in.TrackVM(pl.Servers[i], vmID, spec.ID, adm)
	}
	in.BindPlacement(m)

	ctl.CoordinateHosePeak(nw, dep, workload.AllToOne(spec.VMs))

	var senders []int
	for i := 1; i < spec.VMs; i++ {
		if pl.Servers[i] != pl.Servers[0] {
			senders = append(senders, i)
		}
	}
	const roundNs = int64(1e6)
	horizon := int64(20e6)
	msg := int(spec.Guarantee.BurstBytes)
	var round func()
	var now int64
	round = func() {
		for _, i := range senders {
			dep.Endpoints[i].SendMessage(dep.VMIDs[0], msg, nil)
		}
		now += roundNs
		if now < horizon {
			nw.Sim.At(now, round)
		}
	}
	nw.Sim.At(0, round)
	run := func() { nw.Sim.Run(horizon + int64(1e9)) }
	return in, nw, run
}

// The acceptance criterion for a conforming run: the paced Figure-5
// tenant's fitted envelopes stay within the admitted {B, S}, and every
// traversed port keeps a positive guarantee margin.
func TestFig5PacedEnvelopesAndMargins(t *testing.T) {
	in, _, run := runFig5(t, core.SchemeSilo)
	run()
	s := in.Snapshot()

	if s.Violations != 0 {
		t.Fatalf("paced run flagged %d envelope violations:\n%s", s.Violations, s.Render())
	}
	adm := fig5Spec().Guarantee
	for _, e := range s.Envelopes {
		if e.Emissions == 0 {
			continue
		}
		if e.FittedRateBps > adm.BandwidthBps*1.01 {
			t.Errorf("vm %d: fitted rate %.3g above admitted %.3g", e.VMID, e.FittedRateBps, adm.BandwidthBps)
		}
		if e.FittedBurstBytes > adm.BurstBytes+2*mtu {
			t.Errorf("vm %d: fitted burst %.0f above admitted %.0f", e.VMID, e.FittedBurstBytes, adm.BurstBytes)
		}
	}

	traversed := 0
	for _, p := range s.Ports {
		if !p.Bounded || p.SentPkts == 0 {
			continue
		}
		traversed++
		if p.MarginBytes <= 0 {
			t.Errorf("port %d (%s): margin %.0f B ≤ 0 (bound %.0f, hwm %d)",
				p.Port, p.Name, p.MarginBytes, p.Bounds.BacklogBytes, p.HWMBytes)
		}
	}
	if traversed == 0 {
		t.Fatal("no bounded traversed ports — BindPlacement wired nothing")
	}
	if s.MinMarginPort < 0 {
		t.Fatal("no min-margin port")
	}
	t.Logf("snapshot:\n%s", s.Render())
}

// An unpaced deployment of the same tenant blasting the same worst
// case must flip the envelope-violation flag on the senders.
func TestFig5UnpacedViolatesEnvelope(t *testing.T) {
	in, _, run := runFig5(t, core.SchemeTCP)
	run()
	s := in.Snapshot()
	if s.Violations == 0 {
		t.Fatalf("unpaced blaster not flagged:\n%s", s.Render())
	}
	r := s.Render()
	if !strings.Contains(r, "VIOLATED") {
		t.Fatalf("render missing VIOLATED verdict:\n%s", r)
	}
	t.Logf("snapshot:\n%s", s.Render())
}

// Snapshot JSON round-trips through the silo-sim sidecar format.
func TestSnapshotRoundTrip(t *testing.T) {
	in, _, run := runFig5(t, core.SchemeSilo)
	run()
	s := in.Snapshot()
	path := t.TempDir() + "/introspect.json"
	if err := s.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := introspect.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Envelopes) != len(s.Envelopes) || len(got.Ports) != len(s.Ports) {
		t.Fatalf("round trip lost entries: %d/%d envelopes, %d/%d ports",
			len(got.Envelopes), len(s.Envelopes), len(got.Ports), len(s.Ports))
	}
	if got.MinMarginPort != s.MinMarginPort || got.Violations != s.Violations {
		t.Fatalf("round trip changed summary: %+v vs %+v", got, s)
	}
}
