// Benchmarks regenerating every table and figure of Silo's evaluation
// (one testing.B benchmark per artifact; see DESIGN.md §4) plus
// ablation benchmarks for the design choices DESIGN.md §5 calls out.
// The figures a benchmark shortens through an unexported runner
// (Table 1, the packet-level Fig. 5, Figs. 10, 15 and 16a) are
// benchmarked in internal/experiments instead.
//
// Each benchmark reports domain-specific metrics via b.ReportMetric in
// addition to ns/op: e.g. BenchmarkFig12ClassA reports Silo's p99
// class-A latency, BenchmarkAblationVoid the bunching voids prevent.
//
// Run everything:
//
//	go test -bench=. -benchmem . ./internal/experiments
package silo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netcal"
	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// BenchmarkFig1Memcached regenerates Figure 1: memcached latency CDF
// with and without competing netperf traffic.
func BenchmarkFig1Memcached(b *testing.B) {
	p := experiments.DefaultMemcachedParams()
	p.DurationSec = 0.05
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunFigure1(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].Latencies.Percentile(99), "idle-p99-µs")
		b.ReportMetric(rs[1].Latencies.Percentile(99), "contended-p99-µs")
	}
}

// BenchmarkFig5Placement regenerates the Figure-5 placement example.
func BenchmarkFig5Placement(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OktoWorstBytes/1e3, "okto-worst-KB")
		b.ReportMetric(r.SiloWorstBytes/1e3, "silo-worst-KB")
	}
}

// BenchmarkFig11Testbed regenerates Figure 11: the memcached testbed
// under TCP and Silo req1-3.
func BenchmarkFig11Testbed(b *testing.B) {
	p := experiments.DefaultMemcachedParams()
	p.DurationSec = 0.05
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunFigure11(p)
		if err != nil {
			b.Fatal(err)
		}
		// rs: idle, TCP, req1, req2, req3.
		b.ReportMetric(rs[1].Latencies.Percentile(99), "tcp-p99-µs")
		b.ReportMetric(rs[4].Latencies.Percentile(99), "silo-req3-p99-µs")
	}
}

// BenchmarkFig12ClassA regenerates Figures 12-14 and Table 4: the
// packet-level scheme comparison.
func BenchmarkFig12ClassA(b *testing.B) {
	p := experiments.DefaultComparisonParams()
	p.DurationSec = 0.02
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunComparison(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			switch r.Scheme {
			case core.SchemeSilo:
				b.ReportMetric(r.ClassALatUs.Percentile(99), "silo-p99-µs")
				b.ReportMetric(100*r.OutlierFrac(1), "silo-outliers-%")
			case core.SchemeHULL:
				b.ReportMetric(r.ClassALatUs.Percentile(99), "hull-p99-µs")
			}
		}
	}
}

// BenchmarkPlacement100K regenerates the placement microbenchmark:
// per-request placement latency on a 100,000-host datacenter (paper:
// max 1.15 s over 100 K requests).
func BenchmarkPlacement100K(b *testing.B) {
	b.ReportAllocs()
	p := experiments.DefaultPlacementBenchParams()
	p.Requests = 100
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPlacementBench(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.MaxNs)/1e6, "max-place-ms")
		b.ReportMetric(float64(r.MeanNs)/1e6, "mean-place-ms")
	}
}

// BenchmarkPlaceRemoveChurn measures steady-state admission cost:
// interleaved Place/Remove on a warm datacenter, exercising the
// incremental per-port state and cached queue bounds that churn keeps
// invalidating.
func BenchmarkPlaceRemoveChurn(b *testing.B) {
	b.ReportAllocs()
	tree, err := topology.New(topology.Config{
		Pods: 4, RacksPerPod: 10, ServersPerRack: 40, SlotsPerServer: 8,
		LinkBps: Gbps(10), BufferBytes: 312e3, NICBufferBytes: 62.5e3,
		RackOversub: 5, PodOversub: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := placement.NewManager(tree, placement.Options{})
	spec := func(id int) tenant.Spec {
		s := tenant.Spec{
			ID: id, Name: "churn", VMs: 8 + id%12, FaultDomains: 2,
			Guarantee: tenant.Guarantee{
				BandwidthBps: Mbps(250), BurstBytes: 15e3,
				DelayBound: 1e-3, BurstRateBps: Gbps(1),
			},
		}
		if id%2 == 1 {
			s.Guarantee = tenant.Guarantee{
				BandwidthBps: Gbps(2), BurstBytes: 1.5e3, BurstRateBps: Gbps(2),
			}
		}
		return s
	}
	// Warm to steady state: admit until the first rejection.
	live := []int{}
	nextID := 1
	for {
		if _, err := m.Place(spec(nextID)); err != nil {
			break
		}
		live = append(live, nextID)
		nextID++
	}
	if len(live) < 10 {
		b.Fatalf("warmup admitted only %d tenants", len(live))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := live[i%len(live)]
		if err := m.Remove(victim); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Place(spec(nextID)); err == nil {
			live[i%len(live)] = nextID
		} else if _, err := m.Place(spec(victim)); err == nil {
			// The next spec shape did not fit the freed hole; put a
			// same-shape tenant back so the steady state holds.
			live[i%len(live)] = victim
		} else {
			live[i%len(live)] = live[len(live)-1]
			live = live[:len(live)-1]
			if len(live) == 0 {
				b.Fatal("churn drained the admitted set")
			}
		}
		nextID++
	}
	b.StopTimer()
	if err := m.VerifyInvariants(); err != nil {
		b.Fatal(err)
	}
}

// Ablation benchmarks (DESIGN.md §5).

// BenchmarkAblationHose compares admitted tenants with Silo's
// hose-model curve tightening versus naive aggregation.
func BenchmarkAblationHose(b *testing.B) {
	b.ReportAllocs()
	mkTree := func() *topology.Tree {
		tree, err := topology.New(topology.Config{
			Pods: 2, RacksPerPod: 4, ServersPerRack: 10, SlotsPerServer: 4,
			LinkBps: Gbps(10), BufferBytes: 312e3, NICBufferBytes: 62.5e3,
			RackOversub: 5, PodOversub: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		return tree
	}
	admitAll := func(m *placement.Manager) int {
		n := 0
		for id := 0; id < 200; id++ {
			spec := tenant.Spec{
				ID: id + 1, Name: "abl", VMs: 12, FaultDomains: 2,
				Guarantee: tenant.Guarantee{
					BandwidthBps: Gbps(1), BurstBytes: 15e3, BurstRateBps: Gbps(2),
				},
			}
			if _, err := m.Place(spec); err == nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < b.N; i++ {
		hose := admitAll(placement.NewManager(mkTree(), placement.Options{}))
		plain := admitAll(placement.NewManager(mkTree(), placement.Options{PlainAggregation: true}))
		b.ReportMetric(float64(hose), "hose-admitted")
		b.ReportMetric(float64(plain), "plain-admitted")
	}
}

// BenchmarkAblationDelayCheck compares the paper's queue-capacity
// delay check against the live-queue-bound variant.
func BenchmarkAblationDelayCheck(b *testing.B) {
	b.ReportAllocs()
	mkTree := func() *topology.Tree {
		tree, err := topology.New(topology.Config{
			Pods: 1, RacksPerPod: 4, ServersPerRack: 10, SlotsPerServer: 4,
			LinkBps: Gbps(10), BufferBytes: 312e3, NICBufferBytes: 62.5e3,
			RackOversub: 5, PodOversub: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return tree
	}
	admitAll := func(m *placement.Manager) int {
		n := 0
		for id := 0; id < 150; id++ {
			spec := tenant.Spec{
				ID: id + 1, Name: "abl", VMs: 18, FaultDomains: 2,
				Guarantee: tenant.Guarantee{
					BandwidthBps: Mbps(250), BurstBytes: 15e3,
					DelayBound: 600e-6, BurstRateBps: Gbps(1),
				},
			}
			if _, err := m.Place(spec); err == nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < b.N; i++ {
		capacity := admitAll(placement.NewManager(mkTree(), placement.Options{}))
		bound := admitAll(placement.NewManager(mkTree(), placement.Options{DelayCheckUsesBound: true}))
		b.ReportMetric(float64(capacity), "capacity-check-admitted")
		b.ReportMetric(float64(bound), "bound-check-admitted")
	}
}

// BenchmarkAblationVoid compares paced-IO batching with void packets
// against the no-void ablation (plain batching): the per-batch cost
// and the wire bunching it causes.
func BenchmarkAblationVoid(b *testing.B) {
	run := func(disable bool) (batches int, bunchedNs int64) {
		vm := pacer.NewVM(1, pacer.Guarantee{
			BandwidthBps: Gbps(2), BurstBytes: 3000, BurstRateBps: Gbps(10), MTUBytes: 1518,
		}, 0)
		for i := 0; i < 2000; i++ {
			vm.Enqueue(0, 2, 1518, nil)
		}
		batcher := pacer.NewBatcher(Gbps(10))
		batcher.DisableVoids = disable
		var cursor int64
		for {
			batch := batcher.Build(cursor, []*pacer.VM{vm})
			if len(batch.Packets) == 0 {
				break
			}
			batches++
			var prevEnd int64 = -1
			for _, p := range batch.Packets {
				if p.Void {
					continue
				}
				if prevEnd >= 0 && p.Wire == prevEnd {
					bunchedNs += int64(float64(p.Bytes) / Gbps(10) * 1e9)
				}
				prevEnd = p.Wire + int64(float64(p.Bytes)/Gbps(10)*1e9)
			}
			cursor = batch.End
		}
		return batches, bunchedNs
	}
	for i := 0; i < b.N; i++ {
		_, withVoids := run(false)
		_, without := run(true)
		b.ReportMetric(float64(withVoids)/1e3, "bunched-µs-voids")
		b.ReportMetric(float64(without)/1e3, "bunched-µs-novoids")
	}
}

// BenchmarkPacerEnqueue measures the raw cost of the pacing hot path:
// stamping one packet through the full bucket chain and scheduling it.
func BenchmarkPacerEnqueue(b *testing.B) {
	vm := pacer.NewVM(1, pacer.Guarantee{
		BandwidthBps: Gbps(5), BurstBytes: 15e3, BurstRateBps: Gbps(10), MTUBytes: 1518,
	}, 0)
	vm.SetDestRate(0, 2, Gbps(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Enqueue(int64(i), 2, 1518, nil)
		if i%64 == 63 {
			vm.Schedule(int64(i) + 1e9)
			for {
				if _, ok := vm.PopReady(1 << 62); !ok {
					break
				}
			}
		}
	}
}

// BenchmarkQueueBound measures the network-calculus hot path used per
// admission check.
func BenchmarkQueueBound(b *testing.B) {
	b.ReportAllocs()
	arr := netcal.NewRateCapped(Gbps(6), 600e3, Gbps(20), 12e3)
	srv := netcal.NewRateLatency(Gbps(10), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = netcal.QueueBound(arr, srv)
	}
}

// BenchmarkHoseAllocate measures the EyeQ-style coordination round for
// a 64-VM all-to-all tenant through the id-keyed adapter (the solver
// alone is BenchmarkHoseKernel in internal/pacer).
func BenchmarkHoseAllocate(b *testing.B) {
	b.ReportAllocs()
	send := map[int]float64{}
	recv := map[int]float64{}
	var flows []pacer.Flow
	for i := 0; i < 64; i++ {
		send[i] = Gbps(1)
		recv[i] = Gbps(1)
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if i != j {
				flows = append(flows, pacer.Flow{Src: i, Dst: j})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pacer.HoseAllocate(send, recv, flows)
	}
}

// BenchmarkSimulatorPacketRate measures raw simulator throughput:
// wall-clock cost of forwarding 10k packets across a 2-hop path.
func BenchmarkSimulatorPacketRate(b *testing.B) {
	tree, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 1, ServersPerRack: 2, SlotsPerServer: 1,
		LinkBps: Gbps(10), BufferBytes: 1e6, NICBufferBytes: 1e6,
		RackOversub: 1, PodOversub: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Deep NIC queue: the whole burst is injected at t=0.
		nw := NewNetwork(tree, NetworkOptions{PropNs: 200})
		nw.Hosts[0].NIC.BufferBytes = 32 << 20
		delivered := 0
		nw.Hosts[1].Deliver = func(p *NetPacket) { delivered++ }
		b.StartTimer()
		for j := 0; j < 10000; j++ {
			nw.Hosts[0].Send(&NetPacket{Src: 0, Dst: 1, Size: 1500})
		}
		nw.Sim.Run(1 << 62)
		if delivered != 10000 {
			b.Fatalf("delivered %d", delivered)
		}
	}
}
