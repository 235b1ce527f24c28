package experiments

import (
	"fmt"
	"strings"
)

// MemcachedRow reduces the run of one Figure-1 or Figure-11 line to its
// table row: tenant A's p50, p99 and p99.9 request latency and its
// guarantee in µs (0 when unpaced), its completed requests per second,
// and tenant B's delivered Gbps when it runs alongside.
func MemcachedRow(run *Run) []float64 {
	a, secs := run.Tenants[0], float64(run.Scenario.HorizonNs)/1e9
	var guaranteeUs, rps, bulkGbps float64
	if run.Scenario.Scheme.Paced() {
		// Request + response both within the burst allowance: the
		// guarantee is (reqBytes+respMax)/Bmax + 2d.
		g := a.Tenant.Spec.Guarantee
		guaranteeUs = (g.MessageLatencyBound(100) + g.MessageLatencyBound(1024)) * 1e6
	}
	if secs > 0 {
		rps = float64(a.LatencyUs.Len()) / secs
		if len(run.Tenants) > 1 {
			bulkGbps = float64(run.Tenants[1].BytesReceived) / secs * 8 / 1e9
		}
	}
	return []float64{a.LatencyUs.Percentile(50), a.LatencyUs.Percentile(99), a.LatencyUs.Percentile(99.9),
		guaranteeUs, rps, bulkGbps}
}

// RenderMemcached formats the runs of a Figure-1 or Figure-11 file's
// lines as the paper's Figure 11(b)/(c) tables.
//
// The files lay out the §6.1 testbed (scenarios/fig1.json and
// fig11.json): five servers under one 10 GbE switch, tenant A
// (memcached, 15 VMs, the ETC workload at the paper's 210 Mbps average
// bandwidth requirement) and tenant B (netperf bulk, 1 MB messages, 15
// VMs), VM i of each on server i/3 and A's VM 0 the memcached server.
// The TCP lines run plain TCP; the Silo lines give the tenants Table
// 2's req1-3 guarantees — A's B is 210, 315 or 420 Mbps with a 1.5 KB
// burst at 1 Gbps and d = 1 ms, and B's B (its Bmax too, with a 1.5 KB
// burst) fills each host: 3·(B_A + B_B) = 10 Gbps — and run both hoses
// on the EyeQ-style dynamic loop at a 1 ms epoch. Each line is 0.5 s of load plus a 2 s drain.
func RenderMemcached(runs []*Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %12s %14s %14s\n",
		"scenario", "p50(µs)", "p99(µs)", "p99.9(µs)", "guarantee(µs)", "memcached(req/s)", "bulk(Gbps)")
	for _, run := range runs {
		r := MemcachedRow(run)
		g := "-"
		if r[3] > 0 {
			g = fmt.Sprintf("%.0f", r[3])
		}
		fmt.Fprintf(&b, "%-24s %10.0f %10.0f %10.0f %12s %14.0f %14.2f\n",
			run.Scenario.Name, r[0], r[1], r[2], g, r[4], r[5])
	}
	return b.String()
}
