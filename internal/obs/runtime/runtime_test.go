package runtime

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topology"
)

const gbps = 125e6 // bytes/sec

func testTree(t *testing.T) *topology.Tree {
	t.Helper()
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
	return tree
}

// blastGen drives one host with the tie-free train used by the netsim
// tests (odd offsets, even delay components).
type blastGen struct {
	host      *netsim.Host
	dst       int
	remaining int
	fn        func()
}

func (g *blastGen) send() {
	sim := g.host.Sim()
	p := sim.AllocPacket()
	p.Src, p.Dst = g.host.ID, g.dst
	p.Size = 1500
	g.host.Send(p)
	g.remaining--
	if g.remaining > 0 {
		sim.After(1400, g.fn)
	}
}

// runBlast builds a network, registers the runtime plane on a fresh
// registry before running, and drives the cross-pod permutation blast
// to completion.
func runBlast(t *testing.T, pkts int) (*netsim.Network, *obs.Registry) {
	t.Helper()
	nw := netsim.Build(netsim.NewSim(), testTree(t), netsim.Options{PropNs: 200})
	reg := obs.NewRegistry()
	Register(reg, nw)
	hosts := len(nw.Hosts)
	for h := range nw.Hosts {
		nw.Hosts[h].FreeOnDeliver = true
		g := &blastGen{host: nw.Hosts[h], dst: (h + 3) % hosts, remaining: pkts}
		g.fn = g.send
		g.host.Sim().At(int64(14*h+1), g.fn)
	}
	nw.Run(int64(14*hosts) + int64(pkts)*1400 + 1_000_000)
	return nw, reg
}

func TestCollectSequential(t *testing.T) {
	nw, _ := runBlast(t, 50)
	e := Collect(nw).Engine
	if e.Events == 0 || e.PktHWM == 0 {
		t.Fatalf("engine counters empty: %+v", e)
	}
	if e.EvHitRate < 0 || e.EvHitRate > 1 || e.PktHitRate < 0 || e.PktHitRate > 1 {
		t.Fatalf("hit rates out of [0,1]: %+v", e)
	}
}

// TestRegisterScrape checks the silo_runtime_* families end to end: the
// registered gauge functions must report the same values Collect sees,
// in the registration order the time-series artifact depends on.
func TestRegisterScrape(t *testing.T) {
	nw, reg := runBlast(t, 100)
	e := Collect(nw).Engine
	snap := reg.Snapshot()
	want := []struct {
		name string
		v    int64
	}{
		{"silo_runtime_events_total", e.Events},
		{"silo_runtime_wheel_hwm", e.WheelHWM},
		{"silo_runtime_overflow_heap_hwm", e.FarHWM},
		{"silo_runtime_event_freelist_hits_total", e.EvHits},
		{"silo_runtime_event_freelist_misses_total", e.EvMisses},
		{"silo_runtime_packet_arena_hits_total", e.PktHits},
		{"silo_runtime_packet_arena_misses_total", e.PktMisses},
		{"silo_runtime_packet_arena_in_use", e.PktInUse},
		{"silo_runtime_packet_arena_hwm", e.PktHWM},
	}
	if len(snap.Entries) != len(want) {
		t.Fatalf("%d families registered, want %d", len(snap.Entries), len(want))
	}
	for i, w := range want {
		if got := snap.Entries[i]; got.Name != w.name || got.Value != float64(w.v) {
			t.Errorf("family %d is %s = %v, want %s = %d", i, got.Name, got.Value, w.name, w.v)
		}
	}
	// Registering on a nil registry or nil network must be a no-op.
	Register(nil, nw)
	Register(obs.NewRegistry(), nil)
}
