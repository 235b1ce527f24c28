package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topology"
)

// RunFigure5Sim runs one line of scenarios/fig5.json, the packet-level
// companion to Figure 5: its cluster (nine {1 Gbps, 100 KB, 1 ms} VMs,
// Silo-placed 3/3/3 under one 10 GbE switch) for 20 ms, firing the
// worst case the admission control reasons about, so the analytic
// queue bound can be checked against the simulated occupancy, with
// per-hop latency attribution from the flight recorder tracing every
// packet. It refuses a run whose tenant Silo rejected.
//
// The layout is Silo's whatever the line's scheme deploys it as. The
// paced line coordinates the hose at HosePeak, the adversarial fixed
// point the admission bound must absorb: every sender may push its
// full B toward the one receiver. Every remote VM fires its full burst
// allowance S at VM 0 at the top of each millisecond — the analytic
// bound models remote senders converging on the destination's
// down-port (co-located VMs never cross it), and at peak hose rate the
// {B, S} buckets refill a 100 KB burst at 1 Gbps in 0.8 ms, so each
// round bursts from full buckets exactly as the admission analysis
// assumes.
//
// The unpaced line deploys the same tenant under TCP, the greedy
// baseline whose senders void their own admission contract, with the
// incident plane on and the audited bound tightened to 350 µs. The
// fabric is so over-buffered that no run — paced or not — can exceed
// the admitted 1 ms here (buffers cap queueing at ~400 µs); auditing
// against the delay the paced system actually delivers (its max is
// ~252 µs) makes the unpaced run's self-inflicted damage visible: its
// deliveries land at up to ~501 µs, over any bound in between.
func RunFigure5Sim(sc Scenario) (*Run, error) {
	tree, err := topology.New(sc.Topology)
	if err != nil {
		return nil, err
	}
	run, err := RunScenario(sc, Env{Tree: tree, Placer: core.SchemeSilo.Placer(tree)})
	if err != nil {
		return nil, err
	}
	if len(run.Rejected) > 0 {
		return nil, fmt.Errorf("silo rejected the Figure-5 tenant: %w", run.Rejected[0])
	}
	return run, nil
}

// figure5Queue reduces the run to Figure 5's check: the VMs per server
// under Silo placement (3/3/3), the network-calculus worst-case queue
// for that layout (fig5's analytic number), and the worst occupancy any
// ToR down-port actually reached.
func figure5Queue(run *Run) (layout []int, boundBytes, peakBytes float64) {
	tr := run.Tenants[0]
	for s := 0; s < run.Tree.Servers(); s++ {
		layout = append(layout, tr.Handle.Placement.VMsOnServer(s))
		if hw := float64(run.Net.Queues[run.Tree.RackDownPortID(s)].Stats.HighWaterBytes); hw > peakBytes {
			peakBytes = hw
		}
	}
	return layout, fig5WorstQueue(run.Tree, tr.Tenant.Spec, layout), peakBytes
}

// RenderFigure5Sim formats the simulated Figure-5 check.
func RenderFigure5Sim(run *Run) string {
	tr, g := run.Tenants[0], run.Tenants[0].Tenant.Spec.Guarantee
	layout, bound, peak := figure5Queue(run)
	var b strings.Builder
	fmt.Fprintf(&b, "Silo layout %v, synchronized 100 KB bursts all-to-one\n", layout)
	fmt.Fprintf(&b, "worst-case queue: analytic bound=%.0f KB  simulated peak=%.0f KB  buffer=%.0f KB  drops=%d\n",
		bound/1e3, peak/1e3, run.Tree.Config().BufferBytes/1e3, run.Net.TotalDrops())
	fmt.Fprintf(&b, "messages=%d  latency (µs): %s  guarantee=%.0f µs\n",
		tr.Messages, tr.LatencyUs.Summary("µs"), g.MessageLatencyBound(g.BurstBytes)*1e6)
	if flight := obs.SummarizeFlight(run.Spans); flight.Spans > 0 {
		b.WriteString(flight.Render())
		b.WriteByte('\n')
		// The burst-windowed view: conformance per millisecond round with
		// the dominant culprit port, straight from the trace.
		b.WriteString(obs.RenderTraceWindows(obs.WindowsFromSpans(run.Spans, obs.WindowNs), run.Ports))
	}
	fmt.Fprintf(&b, "%s\n", run.Audit.Summary())
	if run.Incidents != nil {
		b.WriteString(run.Incidents.Render())
	}
	return b.String()
}
