package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pacer"
)

func TestFlightAttributionExactUnpaced(t *testing.T) {
	nw := planeNet(t)
	rec := obs.NewFlightRecorder(0, 1)
	obs.AttachFlightRecorder(nw, rec)
	// Cross-pod (6 hops) and intra-rack (2 hops) packets, plus a
	// back-to-back pair so at least one span has real queueing.
	nw.Hosts[0].Send(&netsim.Packet{ID: 1, Src: 0, Dst: 7, SrcVM: 10, DstVM: 17, Size: 1500})
	nw.Hosts[0].Send(&netsim.Packet{ID: 2, Src: 0, Dst: 1, SrcVM: 10, DstVM: 11, Size: 1500})
	nw.Hosts[0].Send(&netsim.Packet{ID: 3, Src: 0, Dst: 1, SrcVM: 10, DstVM: 11, Size: 1500})
	nw.Sim.Run(1e9)

	spans := obs.AssembleFlight(rec.Events(), obs.PortsOf(nw))
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	for _, s := range spans {
		if !s.Complete {
			t.Errorf("pkt %d incomplete: %+v", s.Pkt, s)
			continue
		}
		if err := s.AttributionErrorNs(); err != 0 {
			t.Errorf("pkt %d attribution error = %d ns, want 0", s.Pkt, err)
		}
	}
	if hops := len(spans[0].Hops); hops != 6 {
		t.Errorf("cross-pod hops = %d, want 6", hops)
	}
	if hops := len(spans[1].Hops); hops != 2 {
		t.Errorf("intra-rack hops = %d, want 2", hops)
	}
	// All three share host 0's NIC: packet 1 hits an empty port, packet
	// 2 queues behind it for one 1500 B slot, packet 3 behind both.
	if spans[0].QueueNs != 0 {
		t.Errorf("leading packet queueing = %d ns, want 0", spans[0].QueueNs)
	}
	if q := spans[1].QueueNs; q < 1000 {
		t.Errorf("second packet queueing = %d ns, want ≈1200", q)
	}
	if spans[2].QueueNs <= spans[1].QueueNs {
		t.Errorf("trailing packet queueing = %d ns, want > %d", spans[2].QueueNs, spans[1].QueueNs)
	}
}

func TestFlightPacedSpan(t *testing.T) {
	nw := planeNet(t)
	rec := obs.NewFlightRecorder(0, 1)
	obs.AttachFlightRecorder(nw, rec)

	h := nw.Hosts[0]
	h.EnablePacing(pacer.NewBatcher(nw.Tree.Config().LinkBps))
	h.AddVM(pacer.NewVM(100, pacer.Guarantee{
		BandwidthBps: 1.25e8, // 1 Gbps
		BurstBytes:   3000,
		BurstRateBps: 1.25e9,
		MTUBytes:     1518,
	}, 0))

	// Three MTU frames: the burst admits the first two, the {B, S}
	// bucket must gate the third.
	for i := uint64(1); i <= 3; i++ {
		h.SendPaced(100, &netsim.Packet{ID: i, Src: 0, Dst: 1, SrcVM: 100, DstVM: 11, Size: 1500})
	}
	nw.Sim.Run(1e9)

	spans := obs.AssembleFlight(rec.Events(), obs.PortsOf(nw))
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	var gated bool
	for _, s := range spans {
		if !s.Complete || s.AttributionErrorNs() != 0 {
			t.Errorf("pkt %d: complete=%v err=%d ns", s.Pkt, s.Complete, s.AttributionErrorNs())
		}
		if s.EnqueueNs < 0 || s.AdmitNs < 0 {
			t.Errorf("pkt %d missing pacer events: enqueue=%d admit=%d", s.Pkt, s.EnqueueNs, s.AdmitNs)
		}
		if s.PacingNs != s.WireNs-s.EnqueueNs {
			t.Errorf("pkt %d pacing = %d, want wire-enqueue = %d", s.Pkt, s.PacingNs, s.WireNs-s.EnqueueNs)
		}
		if s.TokenWaitNs > 0 {
			gated = true
			if s.Gate == 0 {
				t.Errorf("pkt %d waited %d ns on tokens but has no gate", s.Pkt, s.TokenWaitNs)
			}
		}
	}
	if !gated {
		t.Error("no span was token-gated; the burst should not cover 3 MTUs")
	}
}

func TestFlightTapSkipsVoidsAndUnsampled(t *testing.T) {
	nw := planeNet(t)
	rec := obs.NewFlightRecorder(0, 4)
	obs.AttachFlightRecorder(nw, rec)
	nw.Hosts[0].Send(&netsim.Packet{Src: 0, Dst: 1, Size: 84, Void: true}) // void, no ID
	nw.Hosts[0].Send(&netsim.Packet{ID: 5, Src: 0, Dst: 1, Size: 1500})    // 5 & 3 != 0
	nw.Hosts[0].Send(&netsim.Packet{ID: 8, Src: 0, Dst: 1, Size: 1500})    // sampled
	nw.Sim.Run(1e9)
	spans := obs.AssembleFlight(rec.Events(), obs.PortsOf(nw))
	if len(spans) != 1 || spans[0].Pkt != 8 {
		t.Errorf("spans = %+v, want only pkt 8", spans)
	}
}
