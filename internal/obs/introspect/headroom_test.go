package introspect

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

func tinyTree(t *testing.T) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           1,
		RacksPerPod:    1,
		ServersPerRack: 2,
		SlotsPerServer: 4,
		LinkBps:        1.25e9, // 10 Gbps: a 1500 B frame serializes in 1200 ns
		BufferBytes:    312e3,
		NICBufferBytes: 150e3,
		RackOversub:    1,
		PodOversub:     1,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return tree
}

// Busy-period bracketing against hand-computed serialization times: a
// back-to-back burst of three frames is one 3600 ns busy period, an
// isolated frame later is a second 1200 ns one.
func TestPortWatchBusyPeriods(t *testing.T) {
	tree := tinyTree(t)
	nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
	in := Attach(nw, nil, Config{})
	est := in.TrackVM(0, 7, 1, Envelope{RateBps: 1.25e8, BurstBytes: 1000})

	h := nw.Hosts[0]
	h.FreeOnDeliver = true
	nw.Hosts[1].FreeOnDeliver = true
	send := func(at int64, n int) {
		nw.Sim.At(at, func() {
			for i := 0; i < n; i++ {
				p := h.Sim().AllocPacket()
				p.Src, p.SrcVM = 0, 7
				p.Dst, p.DstVM = 1, 1
				p.Size = 1500
				h.Send(p)
			}
		})
	}
	send(0, 3)      // busy period [0, 3600)
	send(10_000, 1) // busy period [10000, 11200)
	nw.Sim.Run(1e6)

	pid := tree.ServerUpPortID(0)
	w := in.watches[pid]
	maxBusy, cnt := w.busyAt(nw.Sim.Now())
	if cnt != 2 {
		t.Fatalf("busy periods %d, want 2", cnt)
	}
	if maxBusy != 3600 {
		t.Fatalf("max busy %d ns, want 3600", maxBusy)
	}

	// The NIC tap fed the unpaced estimator. Virtual queue at B =
	// 1.25e8: 4500 bytes at t=0, minus 1250 drained by t=10 µs, plus
	// the last 1500 B frame = 4750 — against S = 1000 (+MTU tolerance),
	// a violation.
	env := est.Snapshot()
	if env.Emissions != 4 || env.FittedBurstBytes != 4750 {
		t.Fatalf("estimator saw %d emissions, burst %.0f; want 4 and 4750", env.Emissions, env.FittedBurstBytes)
	}
	if !env.Violated {
		t.Fatal("4.5 KB instantaneous burst against S = 1 KB must violate")
	}

	// Snapshot margins against directly-installed bounds.
	in.SetPortBounds(pid, PortBounds{Tenants: 1, BacklogBytes: 10_000, BusyPeriodSec: 5e-6, CapacitySec: 1e-3})
	s := in.Snapshot()
	ph, ok := s.PortFor(pid)
	if !ok || !ph.Bounded {
		t.Fatalf("NIC port missing from snapshot: %+v", s.Ports)
	}
	if ph.HWMBytes != 4500 {
		t.Fatalf("hwm %d, want 4500", ph.HWMBytes)
	}
	if ph.MarginBytes != 10_000-4500 {
		t.Fatalf("margin %.0f, want 5500", ph.MarginBytes)
	}
	if ph.BusyMarginNs != 5000-3600 {
		t.Fatalf("busy margin %.0f, want 1400", ph.BusyMarginNs)
	}
	if s.MinMarginPort != pid {
		t.Fatalf("min-margin port %d, want %d", s.MinMarginPort, pid)
	}
}
