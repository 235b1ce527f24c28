// Best-effort example — §4.4: a latency-guaranteed tenant and a
// best-effort tenant (no guarantees, low 802.1q priority) share a
// cluster. Silo's rate limits cost utilization; best-effort tenants
// buy it back by soaking up residual capacity — without touching the
// guaranteed tenant's tail.
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
	duration := flag.Float64("duration", 0.1, "simulated seconds")
	flag.Parse()

	tree, err := silo.NewDatacenter(silo.DatacenterConfig{
		Pods:           1,
		RacksPerPod:    2,
		ServersPerRack: 5,
		SlotsPerServer: 4,
		LinkBps:        silo.Gbps(10),
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    5,
		PodOversub:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctl := silo.NewController(tree, silo.PlacementOptions{})

	// The guaranteed tenant: a sporadic OLDI-style service.
	guaranteed, err := ctl.Admit(silo.TenantSpec{
		Name: "latency-app", VMs: 9,
		Guarantee: silo.Guarantee{
			BandwidthBps: silo.Mbps(250), BurstBytes: 15e3,
			DelayBound: 1e-3, BurstRateBps: silo.Gbps(1),
		},
		FaultDomains: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The best-effort tenant: admitted on slots alone, no network
	// guarantees, low priority.
	bestEffort, err := ctl.Admit(silo.TenantSpec{
		Name: "batch-app", VMs: 9,
		Class:        silo.ClassBestEffort,
		FaultDomains: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	nw := silo.NewNetwork(tree, silo.NetworkOptions{PropNs: 200})
	fabric := silo.NewFabric(nw)
	gEps := ctl.Deploy(nw, fabric, guaranteed, 100, silo.TransportOptions{})
	beEps := ctl.Deploy(nw, fabric, bestEffort, 500, silo.TransportOptions{MinRTONs: 10_000_000})
	ctl.StartHoseCoordination(nw, guaranteed, 1_000_000)

	horizon := int64(*duration * 1e9)

	// Best-effort shuffle: as greedy as its TCP allows.
	var shuffle, oldi workload.Tally
	shuffle.Shuffle(nw.Sim, beEps, bestEffort.VMIDs, bestEffort.Placement.Servers, 1<<20, horizon)

	// Guaranteed tenant: sparse all-to-one bursts.
	const msg = 5000
	oldi.OLDI(nw.Sim, stats.NewRand(7), gEps[1:], guaranteed.VMIDs[0], msg,
		guaranteed.Spec.Guarantee.BandwidthBps, horizon)
	lat := &oldi.LatencyUs

	nw.Sim.Run(horizon + 3e9)

	var beBytes int64
	for i, ep := range beEps {
		for j := range beEps {
			if i != j {
				beBytes += ep.BytesReceived(bestEffort.VMIDs[j])
			}
		}
	}
	bound := ctl.MessageLatencyBound(guaranteed, msg) * 1e6
	fmt.Printf("guaranteed tenant latency (µs): %s\n", lat.Summary("µs"))
	fmt.Printf("message latency guarantee: %.0f µs\n", bound)
	fmt.Printf("best-effort goodput on residual capacity: %.2f Gbps\n",
		float64(beBytes)*8/(*duration)/1e9)
	if lat.Max() <= bound {
		fmt.Println("=> guarantees held while best-effort filled the fabric")
	}
}
