package experiments

import (
	"fmt"
	"strings"

	"repro/internal/netcal"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/units"
)

// Figure5Result reproduces the paper's placement example (Figure 5):
// nine VMs, each guaranteed 1 Gbps with a 100 KB burst allowance and
// 1 ms delay, on three servers under one 10 Gbps switch.
// Bandwidth-aware placement packs 4/4/1 — a layout whose simultaneous
// worst-case bursts overflow the port buffer — while Silo spreads
// 3/3/3, which the buffer absorbs.
type Figure5Result struct {
	// SiloLayout and OktoLayout are VMs per server.
	SiloLayout, OktoLayout []int
	// WorstCaseQueueBytes is the network-calculus backlog bound at the
	// destination server's down-port under each layout.
	SiloWorstBytes, OktoWorstBytes float64
	// BufferBytes is the available port buffer.
	BufferBytes float64
	// OktoOverflows reports whether the bandwidth-aware layout can
	// overflow (the paper's point).
	OktoOverflows bool
}

// RunFigure5 builds the example cluster of a Figure-5 line
// (scenarios/fig5.json: three 4-slot servers under one 10 GbE switch,
// nine {1 Gbps, 100 KB, 1 ms} VMs), places its tenant with both
// algorithms and evaluates the worst-case queues.
//
// Note on constants: the paper illustrates with 300 KB buffers and
// reports 400 KB worst case for 4/4/1 vs 300 KB for 3/3/3, ignoring
// the token-bucket refill during the burst drain. The rigorous
// network-calculus bound adds B·(drain time) plus NIC bunching, so we
// provision 375 KB buffers (and a 50 µs paced-NIC queue capacity) to
// admit the 3/3/3 layout; 4/4/1 overflows either way. See
// EXPERIMENTS.md.
func RunFigure5(sc Scenario) (Figure5Result, error) {
	tree, err := topology.New(sc.Topology)
	if err != nil {
		return Figure5Result{}, err
	}
	spec := sc.Tenants[0].Spec
	res := Figure5Result{BufferBytes: tree.Config().BufferBytes}

	silo := placement.NewManager(tree, placement.Options{})
	plS, err := silo.Place(spec)
	if err != nil {
		return res, fmt.Errorf("silo rejected the Figure-5 tenant: %w", err)
	}
	okto := placement.NewOktopus(tree)
	plO, err := okto.Place(spec)
	if err != nil {
		return res, fmt.Errorf("oktopus rejected the Figure-5 tenant: %w", err)
	}
	for s := 0; s < tree.Servers(); s++ {
		res.SiloLayout = append(res.SiloLayout, plS.VMsOnServer(s))
		res.OktoLayout = append(res.OktoLayout, plO.VMsOnServer(s))
	}
	res.SiloWorstBytes = fig5WorstQueue(tree, spec, res.SiloLayout)
	res.OktoWorstBytes = fig5WorstQueue(tree, spec, res.OktoLayout)
	res.OktoOverflows = res.OktoWorstBytes > res.BufferBytes
	return res, nil
}

// fig5WorstQueue returns the worst-case backlog (bytes) at any
// server's ToR down-port when the other servers' VMs burst
// simultaneously toward it.
func fig5WorstQueue(tree *topology.Tree, spec tenant.Spec, layout []int) float64 {
	g := spec.Guarantee
	n := spec.VMs
	link := tree.Config().LinkBps
	worst := 0.0
	for dst, kDst := range layout {
		if kDst == 0 {
			continue
		}
		m := n - kDst // remote senders
		if m == 0 {
			continue
		}
		// Remote senders spread over the other servers with VMs.
		otherServers := 0
		for s, k := range layout {
			if s != dst && k > 0 {
				otherServers++
			}
		}
		rate := float64(min(m, kDst)) * g.BandwidthBps
		burst := float64(m) * g.BurstBytes
		// NIC bunching inflation.
		burst += rate * tree.ServerUpPort(0).QueueCapacity()
		peak := float64(otherServers) * link
		arr := netcal.NewRateCapped(rate, burst, peak, units.MTUBytes)
		srv := netcal.NewRateLatency(link, 0)
		if b := netcal.Backlog(arr, srv); b > worst {
			worst = b
		}
	}
	return worst
}

// Render formats the Figure-5 comparison.
func (r Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "port buffer: %.0f KB\n", r.BufferBytes/1e3)
	fmt.Fprintf(&b, "%-22s layout=%v  worst-case queue=%.0f KB  overflow=%v\n",
		"bandwidth-aware (Okto)", r.OktoLayout, r.OktoWorstBytes/1e3, r.OktoOverflows)
	fmt.Fprintf(&b, "%-22s layout=%v  worst-case queue=%.0f KB  overflow=%v\n",
		"Silo", r.SiloLayout, r.SiloWorstBytes/1e3, r.SiloWorstBytes > r.BufferBytes)
	return b.String()
}
