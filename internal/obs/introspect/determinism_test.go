package introspect_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs/introspect"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// Introspection snapshots must be byte-identical from run to run:
// bounds are pure functions of the admitted set, the observed side
// (HWMs, busy periods, envelopes) of a deterministic simulation, and
// Snapshot iterates in registration/port order.
func TestIntrospectionDeterministic(t *testing.T) {
	render := func() string {
		tree, err := topology.New(topology.Config{
			Pods:           2,
			RacksPerPod:    2,
			ServersPerRack: 2,
			SlotsPerServer: 4,
			LinkBps:        10 * gbps,
			BufferBytes:    312e3,
			NICBufferBytes: 150e3,
			RackOversub:    1,
			PodOversub:     1,
		})
		if err != nil {
			t.Fatalf("topology: %v", err)
		}
		// A pod-spanning tenant gives the core/pod ports non-trivial
		// bounds; placement is simulation-independent, so the bound
		// side of the report is identical by construction and the test
		// bites on the observed side (HWMs, busy periods, envelopes).
		m := placement.NewManager(tree, placement.Options{})
		spec := tenant.Spec{ID: 1, Name: "det", VMs: 8, Guarantee: tenant.Guarantee{
			BandwidthBps: 1 * gbps, BurstBytes: 30e3, DelayBound: 1e-3, BurstRateBps: 10 * gbps,
		}}
		if _, err := m.Place(spec); err != nil {
			t.Fatalf("place: %v", err)
		}

		nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
		in := introspect.Attach(nw)
		hosts := len(nw.Hosts)
		for h := 0; h < hosts; h++ {
			in.TrackVM(h, h, h/4, introspect.Envelope{RateBps: 1 * gbps, BurstBytes: 30e3})
		}
		in.BindPlacement(m)

		// A tie-free generator workload: even delay components (1200 ns
		// serialization, 200 ns propagation, 1400 ns gap), odd host
		// start offsets.
		const size = 1500
		const gapNs = 1400
		const pkts = 400
		hostsPerPod := 4
		for h := 0; h < hosts; h++ {
			h := h
			host := nw.Hosts[h]
			host.FreeOnDeliver = true
			pod := h / hostsPerPod
			base := pod * hostsPerPod
			localDst := base + (h-base+1)%hostsPerPod
			crossDst := (h + hostsPerPod) % hosts
			seq, remaining := 0, pkts
			var send func()
			send = func() {
				p := host.Sim().AllocPacket()
				p.Src, p.SrcVM = h, h
				if seq%4 == 0 {
					p.Dst = crossDst
				} else {
					p.Dst = localDst
				}
				p.DstVM = p.Dst
				p.Size = size
				seq++
				host.Send(p)
				if remaining--; remaining > 0 {
					host.Sim().After(gapNs, send)
				}
			}
			nw.Sim.At(int64(14*h+1), send)
		}
		horizon := int64(14*(hosts-1)+1) + pkts*gapNs + 1_000_000
		nw.Sim.Run(horizon)
		s := in.Snapshot()
		return s.Render()
	}

	want := render()
	if len(want) != 1402 {
		t.Errorf("snapshot is %d bytes, want 1402", len(want))
	}
	if got := render(); got != want {
		t.Fatalf("snapshot diverges between two runs:\n--- first ---\n%s\n--- second ---\n%s", want, got)
	}
}
