// OLDI example — a web-search-style partition/aggregate service with a
// strict latency budget. The aggregator fans a query out to N workers;
// every worker replies with a shard result at the same instant (the
// incast that makes OLDI hard). With Silo the service can derive its
// end-to-end query budget from the message-latency bound; the example
// runs queries against a competing shuffle tenant and checks the
// budget holds.
package main

import (
	"flag"
	"fmt"
	"log"

	silo "repro"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		workers  = flag.Int("workers", 15, "worker VMs per query")
		shardKB  = flag.Float64("shard-kb", 8, "per-worker response size")
		queries  = flag.Int("queries", 200, "queries to issue")
		duration = flag.Float64("duration", 0.5, "max simulated seconds")
	)
	flag.Parse()

	tree, err := silo.NewDatacenter(silo.DatacenterConfig{
		Pods:           1,
		RacksPerPod:    2,
		ServersPerRack: 8,
		SlotsPerServer: 4,
		LinkBps:        silo.Gbps(10),
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    2,
		PodOversub:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctl := silo.NewController(tree, silo.PlacementOptions{})

	// The OLDI tenant: aggregator is VM 0, workers are VMs 1..N.
	oldi, err := ctl.Admit(silo.TenantSpec{
		Name: "search",
		VMs:  *workers + 1,
		Guarantee: silo.Guarantee{
			BandwidthBps: silo.Mbps(250),
			BurstBytes:   16e3,
			DelayBound:   1e-3,
			BurstRateBps: silo.Gbps(1),
		},
		FaultDomains: 2,
	})
	if err != nil {
		log.Fatalf("OLDI tenant rejected: %v", err)
	}
	// A competing data-parallel tenant.
	shuffle, err := ctl.Admit(silo.TenantSpec{
		Name: "shuffle",
		VMs:  12,
		Guarantee: silo.Guarantee{
			BandwidthBps: silo.Gbps(1.5),
			BurstBytes:   1.5e3,
			BurstRateBps: silo.Gbps(1.5),
		},
		FaultDomains: 2,
	})
	if err != nil {
		log.Fatalf("shuffle tenant rejected: %v", err)
	}

	shardBytes := int(*shardKB * 1e3)
	// A query completes when the slowest shard arrives: its budget is
	// one shard's message-latency bound (all shards ride concurrent
	// bursts — the burst allowance is not destination-limited).
	shardBound := ctl.MessageLatencyBound(oldi, shardBytes)
	fmt.Printf("per-shard latency bound: %.2f ms — a 20 ms query budget leaves %.2f ms for compute\n",
		shardBound*1e3, 20-shardBound*1e3)

	nw := silo.NewNetwork(tree, silo.NetworkOptions{PropNs: 200})
	fabric := silo.NewFabric(nw)
	oldiEps := ctl.Deploy(nw, fabric, oldi, 100, silo.TransportOptions{})
	shufEps := ctl.Deploy(nw, fabric, shuffle, 500, silo.TransportOptions{})
	ctl.CoordinateHose(nw, oldi, silo.AllToOne(oldi.Spec.VMs))
	ctl.CoordinateHose(nw, shuffle, silo.AllToAll(shuffle.Spec.VMs))

	// Background shuffle: continuous 1 MB messages between all pairs.
	horizon := int64(*duration * 1e9)
	var background workload.Tally
	background.Shuffle(nw.Sim, shufEps, shuffle.VMIDs, shuffle.Placement.Servers, 1<<20, horizon)

	// Queries: all workers reply at once. The aggregator's receive
	// hose (B) bounds sustainable load, so pace queries at a quarter
	// of it — OLDI queries are sporadic bursts, which is exactly what
	// the burst allowance is for.
	queryBytes := float64(*workers) * float64(shardBytes)
	periodNs := int64(4 * queryBytes / oldi.Spec.Guarantee.BandwidthBps * 1e9)
	queryLat := stats.NewSample(*queries)
	issued := 0
	var issue func()
	issue = func() {
		issued++
		start := nw.Sim.Now()
		pending := *workers
		for w := 1; w <= *workers; w++ {
			oldiEps[w].SendMessage(oldi.VMIDs[0], shardBytes, func(m *silo.Message) {
				pending--
				if pending == 0 {
					queryLat.Add(float64(nw.Sim.Now()-start) / 1e6) // ms
				}
			})
		}
		if issued < *queries && nw.Sim.Now()+periodNs < horizon {
			nw.Sim.After(periodNs, issue)
		}
	}
	nw.Sim.After(0, issue)
	nw.Sim.Run(horizon + 2e9)

	fmt.Printf("issued %d queries against a live shuffle; drops=%d\n", issued, nw.TotalDrops())
	fmt.Printf("query completion (ms): %s\n", queryLat.Summary("ms"))
	fmt.Printf("worst query %.3f ms vs per-shard bound %.3f ms\n", queryLat.Max(), shardBound*1e3)
	if queryLat.Max() <= shardBound*1e3 {
		fmt.Println("=> every query finished within the network budget")
	}
}
