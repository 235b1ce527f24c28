package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/obs/slo"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Figure5SimParams configures the packet-level companion to Figure 5:
// the analytic example run for real, with synchronized worst-case
// bursts and flight-recorder attribution.
type Figure5SimParams struct {
	// DurationSec of simulated time (bursts repeat every millisecond).
	DurationSec float64
	// TraceSampleN is the flight-recorder sampling divisor (1 = every
	// packet); 0 disables tracing entirely — the baseline the overhead
	// benchmark compares against.
	TraceSampleN int
	// Scheme selects the deployment scheme. The zero value is
	// SchemeSilo (paced, hose-coordinated — the paper's system);
	// SchemeTCP deploys the same tenant unpaced, the greedy baseline
	// whose senders void their own admission contract.
	Scheme core.Scheme
	// Incidents attaches the incident plane: the introspection sidecar
	// (fitted arrival envelopes + per-port margins), a violation log on
	// the guarantee auditor, and post-run correlation into root-caused
	// incidents (Result.Incidents).
	Incidents bool
	// AuditDelayBoundSec, when > 0, tightens the *audited* NIC-to-NIC
	// bound below the admitted d. The fabric is so over-buffered that
	// no run — paced or not — can exceed the admitted 1 ms here
	// (buffers cap queueing at ~400 µs); auditing against the delay
	// the paced system actually delivers (its max is ~252 µs) makes
	// the unpaced run's self-inflicted damage visible: its deliveries
	// land at up to ~501 µs, over any bound in between.
	AuditDelayBoundSec float64
}

// DefaultFigure5SimParams runs 20 ms (≈20 burst rounds) tracing every
// packet.
func DefaultFigure5SimParams() Figure5SimParams {
	return Figure5SimParams{DurationSec: 0.02, TraceSampleN: 1}
}

// Figure5SimResult holds the simulated counterpart of Figure 5's
// analysis plus the trace attribution.
type Figure5SimResult struct {
	// Layout is VMs per server under Silo placement (3/3/3).
	Layout []int
	// BoundBytes is the network-calculus worst-case queue (fig5's
	// analytic number); PeakBytes the worst occupancy any ToR down-port
	// actually reached; BufferBytes the provisioned buffer.
	BoundBytes, PeakBytes, BufferBytes float64
	// Drops counts switch drops (0 when the bound holds).
	Drops int64
	// Messages completed, with latencies in µs.
	Messages  int
	Latencies *stats.Sample
	// BoundUs is the tenant's message-latency guarantee for the burst.
	BoundUs float64

	// Flight is the attribution roll-up (zero-valued when tracing was
	// disabled); Spans/Ports expose the recording for export.
	Flight obs.FlightSummary
	Spans  []obs.FlightSpan
	Ports  []obs.PortMeta

	// AuditSummary is the guarantee auditor's one-liner (which bound
	// deliveries were judged against, worst delay, violation count).
	AuditSummary string
	// Incidents is the correlated incident report (nil unless
	// Params.Incidents was set).
	Incidents *incident.Report
}

// RunFigure5Sim instantiates Figure 5's cluster (nine {1 Gbps, 100 KB,
// 1 ms} VMs, Silo-placed 3/3/3 under one 10 GbE switch), fires the
// worst case the admission control reasons about — every remote VM
// bursting its full allowance at the same destination simultaneously —
// and checks the analytic queue bound against the simulated occupancy,
// with per-hop latency attribution from the flight recorder.
func RunFigure5Sim(p Figure5SimParams) (Figure5SimResult, error) {
	if p.DurationSec <= 0 {
		p.DurationSec = DefaultFigure5SimParams().DurationSec
	}
	tree, err := topology.New(fig5Topology)
	if err != nil {
		return Figure5SimResult{}, err
	}
	const roundNs = int64(1e6)
	sc := Scenario{
		Topology: fig5Topology,
		Scheme:   p.Scheme,
		Tenants: []Tenant{{
			Spec:               fig5Spec,
			VMBase:             1000,
			AuditDelayBoundSec: p.AuditDelayBoundSec,
			// HosePeak is the adversarial fixed point the admission bound
			// must absorb: every sender may push its full B toward the one
			// receiver. An unpaced scheme has no hose to coordinate — that
			// is the point.
			Hose: Hose{Kind: HosePeak, Pattern: workload.AllToOne(fig5Spec.VMs)},
			// Every *remote* VM fires its full burst allowance S at VM 0 at
			// the top of each millisecond — the analytic bound models remote
			// senders converging on the destination's down-port (co-located
			// VMs never cross it), and at peak hose rate the {B, S} buckets
			// refill a 100 KB burst at 1 Gbps in 0.8 ms, so each round bursts
			// from full buckets exactly as the admission analysis assumes.
			Driver: Driver{Kind: DriverBurst, MsgBytes: int(fig5Spec.Guarantee.BurstBytes), PeriodNs: roundNs, RemoteOnly: true},
		}},
		HorizonNs: int64(p.DurationSec * 1e9),
		DrainNs:   1e9,
		Planes: Planes{
			Audit:        true,
			TraceSampleN: p.TraceSampleN,
			Introspect:   p.Incidents,
			Incidents:    p.Incidents,
			// One merge window per burst round: violations from consecutive
			// rounds of the same overload chain into one incident.
			IncidentMergeNs: 2 * roundNs,
		},
	}
	// The layout is Silo's whatever the scheme deploys it as: SchemeTCP
	// runs the same 3/3/3 tenant unpaced.
	run, err := RunScenario(sc, Env{Tree: tree, Placer: core.SchemeSilo.Placer(tree)})
	if err != nil {
		return Figure5SimResult{}, err
	}
	if len(run.Rejected) > 0 {
		return Figure5SimResult{}, fmt.Errorf("silo rejected the Figure-5 tenant: %w", run.Rejected[0])
	}
	tr := run.Tenants[0]
	res := Figure5SimResult{
		BufferBytes:  tree.Config().BufferBytes,
		Drops:        run.Net.TotalDrops(),
		Messages:     tr.Messages,
		Latencies:    &tr.LatencyUs,
		BoundUs:      fig5Spec.Guarantee.MessageLatencyBound(fig5Spec.Guarantee.BurstBytes) * 1e6,
		Spans:        run.Spans,
		Ports:        run.Ports,
		AuditSummary: run.Audit.Summary(),
		Incidents:    run.Incidents,
	}
	for s := 0; s < tree.Servers(); s++ {
		res.Layout = append(res.Layout, tr.Handle.Placement.VMsOnServer(s))
		if hw := float64(run.Net.Queues[tree.RackDownPort(s).ID].Stats.HighWaterBytes); hw > res.PeakBytes {
			res.PeakBytes = hw
		}
	}
	res.BoundBytes = fig5WorstQueue(tree, fig5Spec, res.Layout)
	if run.Spans != nil {
		res.Flight = obs.SummarizeFlight(run.Spans)
	}
	return res, nil
}

// Render formats the simulated Figure-5 check.
func (r Figure5SimResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Silo layout %v, synchronized 100 KB bursts all-to-one\n", r.Layout)
	fmt.Fprintf(&b, "worst-case queue: analytic bound=%.0f KB  simulated peak=%.0f KB  buffer=%.0f KB  drops=%d\n",
		r.BoundBytes/1e3, r.PeakBytes/1e3, r.BufferBytes/1e3, r.Drops)
	fmt.Fprintf(&b, "messages=%d  latency (µs): %s  guarantee=%.0f µs\n",
		r.Messages, r.Latencies.Summary("µs"), r.BoundUs)
	if r.Flight.Spans > 0 {
		b.WriteString(r.Flight.Render())
		b.WriteByte('\n')
		// The burst-windowed SLO view: conformance per millisecond round
		// with the dominant culprit port, straight from the trace.
		b.WriteString(slo.RenderTraceWindows(slo.WindowsFromSpans(r.Spans, int64(1e6)), r.Ports))
	}
	if r.AuditSummary != "" {
		fmt.Fprintf(&b, "%s\n", r.AuditSummary)
	}
	if r.Incidents != nil {
		b.WriteString(r.Incidents.Render())
	}
	return b.String()
}
