package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// burstOutcome pools the admitted tenants' message latencies against
// the guarantee the offered tenants share, in µs: the messages later
// than it, the p99, and whether every message completed within it.
func burstOutcome(run *Run) (late int, p99, guarantee float64, allOK bool) {
	guarantee = guaranteeUs(run.Scenario.Tenants[0])
	lat, msgs := stats.NewSample(256), 0
	for _, tr := range run.Tenants {
		msgs += tr.Messages
		lat.AddAll(tr.LatencyUs.Values())
	}
	late = int(float64(lat.Len()) * lat.FractionAbove(guarantee))
	return late, lat.Percentile(99), guarantee, lat.Len() == msgs && lat.Max() <= guarantee
}

// RenderBurstStress compares the runs of scenarios/burststress.json's
// lines — Silo, then Okto+, over the same offered tenants — which fire
// every admitted tenant's senders simultaneously at t=0: the
// synchronized worst case the placement must have budgeted for.
//
// It is the runtime demonstration of Figure 5's principle and the
// mechanism behind Okto+'s Table-4 outliers: placement that guarantees
// bandwidth but ignores bursts admits tenant sets whose simultaneous
// (allowed!) bursts overflow switch buffers. Silo's queuing constraint
// instead rejects tenants it cannot absorb, and the ones it admits
// never lose a packet. It is sized so that bandwidth-only admission
// accepts every tenant while the combined worst-case burst is ~3x the
// port buffer: eight tenants of one receiver and three senders, one VM
// per server by fault domains (maximal fan-in) on four 8-slot servers,
// each sender bursting 30 KB at 0.4 Gbps (modest: bandwidth-only
// admission accepts everything) under a static fair-share hose (all
// senders always burst together here).
func RenderBurstStress(runs []*Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s %10s %12s %14s %10s\n",
		"scheme", "admitted", "drops", "late msgs", "p99 (µs)", "guarantee(µs)", "all OK")
	for _, run := range runs {
		late, p99, guarantee, allOK := burstOutcome(run)
		fmt.Fprintf(&b, "%-8s %6d/%-3d %8d %10d %12.0f %14.0f %10v\n",
			run.Scenario.Scheme, len(run.Tenants), len(run.Scenario.Tenants), run.Net.TotalDrops(), late,
			p99, guarantee, allOK)
	}
	return b.String()
}
