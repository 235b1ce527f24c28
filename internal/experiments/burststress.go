package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// BurstStressResult compares the two schemes under the same offered
// tenant stream.
type BurstStressResult struct {
	Scheme       core.Scheme
	Admitted     int
	Offered      int
	Drops        int64
	MessagesLate int
	Messages     int
	P99LatencyUs float64
	GuaranteeUs  float64
	WorstBoundOK bool
}

// RunBurstStress runs each line of scenarios/burststress.json — Silo,
// then Okto+, over the same offered tenants — and fires every admitted
// tenant's senders simultaneously at t=0: the synchronized worst case
// the placement must have budgeted for.
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
func RunBurstStress(lines []Scenario) ([]BurstStressResult, error) {
	var out []BurstStressResult
	for _, sc := range lines {
		run, err := RunScenario(sc, Env{})
		if err != nil {
			return nil, err
		}
		t := sc.Tenants[0]
		res := BurstStressResult{
			Scheme:      sc.Scheme,
			Offered:     len(sc.Tenants),
			Admitted:    len(run.Tenants),
			Drops:       run.Net.TotalDrops(),
			GuaranteeUs: t.Spec.Guarantee.MessageLatencyBound(float64(t.Driver.MsgBytes)) * 1e6,
		}
		lat := stats.NewSample(256)
		for _, tr := range run.Tenants {
			res.Messages += tr.Messages
			lat.AddAll(tr.LatencyUs.Values())
		}
		res.P99LatencyUs = lat.Percentile(99)
		res.MessagesLate = int(float64(lat.Len()) * lat.FractionAbove(res.GuaranteeUs))
		res.WorstBoundOK = lat.Len() == res.Messages && lat.Max() <= res.GuaranteeUs
		out = append(out, res)
	}
	return out, nil
}

// RenderBurstStress formats the comparison.
func RenderBurstStress(rs []BurstStressResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s %10s %12s %14s %10s\n",
		"scheme", "admitted", "drops", "late msgs", "p99 (µs)", "guarantee(µs)", "all OK")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-8s %6d/%-3d %8d %10d %12.0f %14.0f %10v\n",
			r.Scheme, r.Admitted, r.Offered, r.Drops, r.MessagesLate,
			r.P99LatencyUs, r.GuaranteeUs, r.WorstBoundOK)
	}
	return b.String()
}
