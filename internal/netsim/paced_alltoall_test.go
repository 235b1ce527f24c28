package netsim

import (
	"reflect"
	"testing"

	"repro/internal/pacer"
)

// pacedDelivery is one line of a host's delivery log.
type pacedDelivery struct {
	at, release int64
	id          uint64
	gate        uint8
}

// runPacedAllToAll offers every host 10 Gbps of all-to-all traffic for
// 1 ms through a paced VM (2 Gbps hose split over 7 destinations, so
// every destination queue stays backlogged) across both pods, and
// returns each host's delivery log and the network.
func runPacedAllToAll(t *testing.T) ([][]pacedDelivery, *Network) {
	t.Helper()
	nw := Build(NewSim(), testTree(t), Options{PropNs: 200})
	hosts := len(nw.Hosts)
	logs := make([][]pacedDelivery, hosts)
	for i, h := range nw.Hosts {
		i, h := i, h
		h.EnablePacing(pacer.NewBatcher(10 * gbps))
		vm := pacer.NewVM(i, pacer.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 15e3, BurstRateBps: 10 * gbps, MTUBytes: 1500}, 0)
		for d := 0; d < hosts; d++ {
			if d != i {
				vm.SetDestRate(0, d, 2*gbps/float64(hosts-1))
			}
		}
		h.AddVM(vm)
		h.Deliver = func(p *Packet) {
			logs[i] = append(logs[i], pacedDelivery{at: h.Sim().Now(), release: p.PacedRelease, id: p.ID, gate: p.Gate})
		}
		var seq uint64
		var send func()
		send = func() {
			seq++
			dst := (i + 1 + int(seq)%(hosts-1)) % hosts
			p := h.Sim().AllocPacket()
			p.ID = uint64(i+1)<<32 | seq
			p.Src, p.Dst, p.SrcVM, p.DstVM, p.Size = i, dst, i, dst, 1500
			h.SendPaced(i, p)
			if h.Sim().Now() < 1_000_000 {
				h.Sim().After(1200, send)
			}
		}
		h.Sim().At(int64(14*i+1), send)
	}
	nw.Run(1_000_000)
	return logs, nw
}

// TestPacedAllToAllDeterministic: frame free lists are per host, so
// recycling must leave the paced delivery log — every delivery's time,
// release stamp, packet and gating bucket, through the pod↔core links —
// identical from run to run, with the totals pinned.
func TestPacedAllToAllDeterministic(t *testing.T) {
	ref, _ := runPacedAllToAll(t)
	total := 0
	for _, l := range ref {
		total += len(l)
	}
	if total != 1400 {
		t.Errorf("delivered %d packets, want 1400", total)
	}
	if got, _ := runPacedAllToAll(t); !reflect.DeepEqual(got, ref) {
		t.Error("second run's paced delivery log diverges from the first's")
	}
}
