package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pacer"
)

// Each emit site calls its kind's subscribers in subscription order,
// and a subscriber only for the kinds it named.
func TestSpineDispatchOrderAndKinds(t *testing.T) {
	nw := buildNet(t)
	h := nw.Hosts[0]
	h.EnablePacing(pacer.NewBatcher(nw.Tree.Config().LinkBps))
	h.AddVM(pacer.NewVM(100, pacer.Guarantee{
		BandwidthBps: 1.25e8,
		BurstBytes:   3000,
		BurstRateBps: 1.25e9,
		MTUBytes:     1518,
	}, 0))

	var got []string
	subscribe := func(name string, kinds ...EventKind) {
		nw.Sim.Subscribe(func(ev Event) {
			if ev.P.ID == 1 { // not the batch's void frames
				got = append(got, fmt.Sprintf("%s kind=%d at=%d", name, ev.Kind, ev.At))
			}
		}, kinds...)
	}
	subscribe("a", EvPortEnqueue, EvDeliver)
	subscribe("b", EvPacedEnqueue, EvPacedWire, EvPortEnqueue, EvPortTransmit, EvDeliver)
	subscribe("c", EvDeliver)
	h.SendPaced(100, &Packet{ID: 1, Src: 0, Dst: 1, SrcVM: 100, DstVM: 11, Size: 1500})
	nw.Sim.Run(1e9)

	nic, down := nw.Tree.ServerUpPort(0).ID, nw.Tree.RackDownPort(1).ID
	want := []string{
		"b kind=0 at=0", // paced enqueue on host 0
		"b kind=1 at=0", // on the wire
		fmt.Sprintf("a kind=2 at=%d", nic),
		fmt.Sprintf("b kind=2 at=%d", nic),
		fmt.Sprintf("b kind=3 at=%d", nic),
		fmt.Sprintf("a kind=2 at=%d", down),
		fmt.Sprintf("b kind=2 at=%d", down),
		fmt.Sprintf("b kind=3 at=%d", down),
		"a kind=4 at=1", // delivered on host 1
		"b kind=4 at=1",
		"c kind=4 at=1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch:\n got %q\nwant %q", got, want)
	}
}
