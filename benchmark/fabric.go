package main

import (
	"math/rand"

	silo "repro"
)

// fabric_raw is the bare sequential engine: 16 pods × 2 racks × 2
// servers, one self-re-arming generator per host sending a 1500 B arena
// packet every 1400 ns (86 % of line rate), three in four to the other
// server of its rack and one in four to a host in another pod. No
// transport, no pacer, no placement.
const (
	fabricPods      = 16
	fabricPktBytes  = 1500
	fabricGapNs     = 1400
	fabricWindowNs  = int64(1e6)
	fabricSettleNs  = int64(1e6)
	fabricCrossFrac = 0.25
	// fabricPktsPerHostPerSec sizes the run: packets each host injects
	// per host second asked for, measured on the 2-core reference
	// container.
	fabricPktsPerHostPerSec = 42000
)

// fabricGen is one host's open-loop source: it sends on its schedule
// whatever the fabric does with the packets.
type fabricGen struct {
	in        *fabricInst
	host      int
	remaining int
	rng       *rand.Rand
	fn        func()
}

type fabricInst struct {
	nw       *silo.Network
	hosts    int
	perHost  int
	injected int64
	// delivered and delayNs are fed by every host's OnDeliver hook.
	delivered int64
	delayNs   int64
	gens      []*fabricGen
}

func (g *fabricGen) send() {
	in := g.in
	h := in.nw.Hosts[g.host]
	dst := g.host ^ 1 // the other server of a two-server rack
	if g.rng.Float64() < fabricCrossFrac {
		// Uniform over the hosts outside this host's 4-host pod.
		dst = g.rng.Intn(in.hosts - 4)
		if pod := g.host / 4 * 4; dst >= pod {
			dst += 4
		}
	}
	p := h.Sim().AllocPacket()
	p.Src, p.SrcVM = g.host, g.host
	p.Dst, p.DstVM = dst, dst
	p.Size = fabricPktBytes
	h.Send(p)
	in.injected++
	g.remaining--
	if g.remaining > 0 {
		h.Sim().After(fabricGapNs, g.fn)
	}
}

func fabricSetup(e *env) (instance, error) {
	sp := e.tr.begin("topology.new")
	tree, err := silo.NewDatacenter(silo.DatacenterConfig{
		Pods:           fabricPods,
		RacksPerPod:    2,
		ServersPerRack: 2,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 150e3,
		RackOversub:    1,
		PodOversub:     1,
	})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin("netsim.build")
	nw := silo.NewNetwork(tree, silo.NetworkOptions{PropNs: 200})
	e.tr.end(sp)
	in := &fabricInst{nw: nw, hosts: len(nw.Hosts), perHost: max(int(e.seconds*fabricPktsPerHostPerSec), 100)}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	for i, h := range nw.Hosts {
		h.FreeOnDeliver = true
		h.OnDeliver = func(_ *silo.NetPacket, delayNs int64) {
			in.delivered++
			in.delayNs += delayNs
		}
		g := &fabricGen{in: in, host: i, remaining: in.perHost, rng: rand.New(rand.NewSource(rng.Int63()))}
		g.fn = g.send
		in.gens = append(in.gens, g)
		// Stagger the starts so hosts do not tick in lockstep.
		nw.Sim.At(int64(rng.Intn(fabricGapNs)), g.fn)
	}
	return in, nil
}

func (in *fabricInst) run(e *env) {
	end := int64(in.perHost)*fabricGapNs + fabricSettleNs
	for t := fabricWindowNs; t < end+fabricWindowNs; t += fabricWindowNs {
		sp := e.tr.begin("netsim.run")
		in.nw.Sim.Run(t)
		e.tr.end(sp)
	}
}

func (in *fabricInst) finish(e *env, o *outcome) {
	c := readNet(in.nw)
	o.ops = c.hops
	o.attempted = in.injected
	if want := int64(in.perHost * in.hosts); in.injected != want {
		o.fail(want-in.injected, "injected %d of %d packets", in.injected, want)
	}
	if in.delivered != in.injected {
		o.fail(in.injected-in.delivered, "%d of %d packets not delivered (%d dropped)", in.injected-in.delivered, in.injected, c.drops)
	}
	o.digest = simDigest(in.nw, []int64{in.delivered, in.delayNs})
	netLedger(o, in.nw, c)
	o.layer["workload.msgs_submitted"] = float64(in.injected)
	o.layer["workload.bytes_submitted"] = float64(in.injected * fabricPktBytes)
}
