package introspect_test

import (
	"context"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs/introspect"
	"repro/internal/pacer"
	"repro/internal/topology"
)

// A paced VM's envelope counts the frames its host laid on the wire, not
// the ones its pacer committed. A batch commits every frame up to its
// end at once, so a run cancelled mid-batch, as silo-sim is on SIGINT,
// leaves committed frames that never reached the wire; the fit must not
// count them.
func TestPacedEnvelopeCountsWireFrames(t *testing.T) {
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
		t.Fatal(err)
	}
	nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
	h := nw.Hosts[0]
	h.EnablePacing(pacer.NewBatcher(tree.Config().LinkBps))
	g := pacer.Guarantee{BandwidthBps: 1 * gbps, BurstBytes: 30e3, BurstRateBps: 10 * gbps, MTUBytes: mtu}
	vms := []int{100, 101}
	in := introspect.Attach(nw)
	for _, vm := range vms {
		h.AddVM(pacer.NewVM(vm, g, 0))
		in.TrackVM(0, vm, 1, introspect.Envelope{RateBps: g.BandwidthBps, BurstBytes: g.BurstBytes})
	}
	frames, bytes := map[int]int64{}, map[int]float64{}
	nw.Sim.Subscribe(func(ev netsim.Event) {
		frames[ev.P.SrcVM]++
		bytes[ev.P.SrcVM] += float64(ev.P.Size)
	}, netsim.EvPacedWire)

	const perVM = 40
	id := uint64(0)
	for i := 0; i < perVM; i++ {
		for _, vm := range vms {
			id++
			h.SendPaced(vm, &netsim.Packet{ID: id, Src: 0, Dst: 1, SrcVM: vm, DstVM: 11, Size: 1500})
		}
	}
	// Cancel 30 µs in, inside the first 50 µs batch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nw.Sim.At(30_000, cancel)
	nw.RunCtx(ctx, 1e9)

	snap := in.Snapshot()
	for _, vm := range vms {
		env, ok := snap.EnvelopeFor(vm)
		if !ok {
			t.Fatalf("VM %d not tracked", vm)
		}
		if frames[vm] == 0 || frames[vm] >= perVM {
			t.Fatalf("VM %d put %d of %d frames on the wire: the cut is not inside its stream", vm, frames[vm], perVM)
		}
		if env.Emissions != frames[vm] || env.TotalBytes != bytes[vm] {
			t.Errorf("VM %d envelope counts %d frames / %.0f B, the wire carried %d / %.0f B",
				vm, env.Emissions, env.TotalBytes, frames[vm], bytes[vm])
		}
	}
}
