package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// MemcachedResult is one scenario's outcome.
type MemcachedResult struct {
	Scenario string
	// Latencies are memcached request latencies in µs.
	Latencies *stats.Sample
	// RequestsCompleted and offered.
	RequestsCompleted, RequestsIssued int
	// BulkBytes delivered to tenant-B receivers.
	BulkBytes int64
	// SimSeconds of load.
	SimSeconds float64
	// GuaranteeUs is Silo's message latency guarantee for the ETC
	// request/response pair in µs (0 for unpaced scenarios).
	GuaranteeUs float64
}

// MemcachedThroughputRps returns completed requests per second.
func (r MemcachedResult) MemcachedThroughputRps() float64 {
	if r.SimSeconds == 0 {
		return 0
	}
	return float64(r.RequestsCompleted) / r.SimSeconds
}

// BulkThroughputBps returns tenant B's delivered bandwidth.
func (r MemcachedResult) BulkThroughputBps() float64 {
	if r.SimSeconds == 0 {
		return 0
	}
	return float64(r.BulkBytes) / r.SimSeconds
}

// RunMemcached runs each line of a Figure-1 or Figure-11 file: tenant
// A's request latencies and throughput, with tenant B's delivered bytes
// when it runs alongside.
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
func RunMemcached(lines []Scenario) ([]MemcachedResult, error) {
	var out []MemcachedResult
	for _, sc := range lines {
		run, err := RunScenario(sc, Env{})
		if err != nil {
			return nil, err
		}
		a := run.Tenants[0]
		res := MemcachedResult{
			Scenario:          sc.Name,
			Latencies:         &a.LatencyUs,
			RequestsIssued:    a.Messages,
			RequestsCompleted: a.LatencyUs.Len(),
			SimSeconds:        float64(sc.HorizonNs) / 1e9,
		}
		if sc.Scheme.Paced() {
			// Request + response both within the burst allowance: the
			// guarantee is (reqBytes+respMax)/Bmax + 2d.
			g := a.Tenant.Spec.Guarantee
			res.GuaranteeUs = (g.MessageLatencyBound(100) + g.MessageLatencyBound(1024)) * 1e6
		}
		if len(run.Tenants) > 1 {
			res.BulkBytes = run.Tenants[1].BytesReceived
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderMemcached formats results as the paper's Figure 11(b)/(c)
// tables.
func RenderMemcached(results []MemcachedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %12s %14s %14s\n",
		"scenario", "p50(µs)", "p99(µs)", "p99.9(µs)", "guarantee(µs)", "memcached(req/s)", "bulk(Gbps)")
	for _, r := range results {
		g := "-"
		if r.GuaranteeUs > 0 {
			g = fmt.Sprintf("%.0f", r.GuaranteeUs)
		}
		fmt.Fprintf(&b, "%-24s %10.0f %10.0f %10.0f %12s %14.0f %14.2f\n",
			r.Scenario,
			r.Latencies.Percentile(50),
			r.Latencies.Percentile(99),
			r.Latencies.Percentile(99.9),
			g,
			r.MemcachedThroughputRps(),
			r.BulkThroughputBps()*8/1e9)
	}
	return b.String()
}
