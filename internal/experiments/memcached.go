package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/units"
)

// MemcachedParams configures the §6.1 testbed reproduction: five
// servers under one 10 GbE switch, tenant A (memcached, 15 VMs, ETC
// workload) and tenant B (netperf bulk, 15 VMs), three VMs of each per
// server.
type MemcachedParams struct {
	// DurationSec of simulated load.
	DurationSec float64
	Seed        uint64
}

// DefaultMemcachedParams returns the paper's configuration at a
// simulation-friendly duration.
func DefaultMemcachedParams() MemcachedParams {
	return MemcachedParams{DurationSec: 0.5, Seed: 1}
}

// The testbed's fixed setup (§6.1).
const (
	// memcachedServers in the rack (paper: 5).
	memcachedServers = 5
	// memcachedVMsPerServer of each tenant (paper: 3).
	memcachedVMsPerServer = 3
	// memcachedTargetABps is tenant A's aggregate offered load (paper:
	// average bandwidth requirement 210 Mbps).
	memcachedTargetABps = 210 * units.Mbps
	// memcachedBulkMsgBytes is the netperf message size.
	memcachedBulkMsgBytes = 1 << 20
	// memcachedHoseEpochNs is the EyeQ-style dynamic hose loop's epoch.
	memcachedHoseEpochNs = 1_000_000
)

// MemcachedScenario is one line of Figure 11.
type MemcachedScenario struct {
	Name string
	// WithBulk runs tenant B alongside.
	WithBulk bool
	// Paced applies Silo pacing with the given tenant guarantees
	// (Table 2); nil means plain TCP.
	GuaranteeA *tenant.Guarantee
	GuaranteeB *tenant.Guarantee
}

// Table2Guarantees returns the paper's req-1..3 guarantee pairs
// (Table 2), parameterized by the A-tenant bandwidth multiplier.
func Table2Guarantees(req int) (a, b tenant.Guarantee) {
	var aB float64
	switch req {
	case 1:
		aB = 210 * units.Mbps
	case 2:
		aB = 315 * units.Mbps
	default:
		aB = 420 * units.Mbps
	}
	// Per host: 3·(B_A + B_B) = 10 Gbps (paper Table 2 note).
	bB := 10*units.Gbps/3 - aB
	a = tenant.Guarantee{BandwidthBps: aB, BurstBytes: 1.5e3, DelayBound: 1e-3, BurstRateBps: 1 * units.Gbps}
	b = tenant.Guarantee{BandwidthBps: bB, BurstBytes: 1.5e3, BurstRateBps: bB}
	return a, b
}

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

// memcachedScenario lays one Figure-11 line out on the testbed: VM i of
// each tenant on server i/3, tenant A's VM 0 the memcached server.
// Under Silo the hoses follow the dynamic loop.
func memcachedScenario(p MemcachedParams, sc MemcachedScenario) Scenario {
	const nA = memcachedServers * memcachedVMsPerServer
	servers := make([]int, nA)
	for i := range servers {
		servers[i] = i / memcachedVMsPerServer
	}
	hose := Hose{Kind: HoseDynamic, EpochNs: memcachedHoseEpochNs}
	a := Tenant{
		Spec: tenant.Spec{ID: 1, Name: "A", VMs: nA}, VMBase: 1000, Servers: servers,
		Hose: hose, Driver: Driver{Kind: DriverETC, TargetBps: memcachedTargetABps},
	}
	b := Tenant{
		Spec: tenant.Spec{ID: 2, Name: "B", VMs: nA}, VMBase: 2000, Servers: servers,
		Hose: hose, Driver: Driver{Kind: DriverShuffle, MsgBytes: memcachedBulkMsgBytes},
	}
	out := Scenario{
		Topology:  TenGbE(1, 1, memcachedServers, 2*memcachedVMsPerServer, 1, 1),
		Scheme:    core.SchemeTCP,
		Seed:      p.Seed,
		Tenants:   []Tenant{a},
		HorizonNs: int64(p.DurationSec * 1e9),
		DrainNs:   2e9, // drain tail
	}
	if sc.GuaranteeA != nil {
		out.Scheme = core.SchemeSilo
		out.Tenants[0].Spec.Guarantee = *sc.GuaranteeA
		b.Spec.Guarantee = *sc.GuaranteeB
	}
	if sc.WithBulk {
		out.Tenants = append(out.Tenants, b)
	}
	return out
}

// RunMemcachedScenario runs one Figure-11 line.
func RunMemcachedScenario(p MemcachedParams, sc MemcachedScenario) (MemcachedResult, error) {
	run, err := RunScenario(memcachedScenario(p, sc), Env{})
	if err != nil {
		return MemcachedResult{}, err
	}
	a := run.Tenants[0]
	res := MemcachedResult{
		Scenario:          sc.Name,
		Latencies:         &a.LatencyUs,
		RequestsIssued:    a.Messages,
		RequestsCompleted: a.LatencyUs.Len(),
		SimSeconds:        p.DurationSec,
	}
	if sc.GuaranteeA != nil {
		// Request + response both within the burst allowance: the
		// guarantee is (reqBytes+respMax)/Bmax + 2d.
		g := *sc.GuaranteeA
		res.GuaranteeUs = (g.MessageLatencyBound(100) + g.MessageLatencyBound(1024)) * 1e6
	}
	if sc.WithBulk {
		res.BulkBytes = run.Tenants[1].BytesReceived
	}
	return res, nil
}

// Figure11Scenarios returns the five scenario lines of Figure 11
// (idle TCP, contended TCP, Silo req 1–3).
func Figure11Scenarios() []MemcachedScenario {
	scs := []MemcachedScenario{
		{Name: "TCP (idle)", WithBulk: false},
		{Name: "TCP", WithBulk: true},
	}
	for req := 1; req <= 3; req++ {
		a, b := Table2Guarantees(req)
		scs = append(scs, MemcachedScenario{
			Name:       fmt.Sprintf("Silo req%d", req),
			WithBulk:   true,
			GuaranteeA: &a,
			GuaranteeB: &b,
		})
	}
	return scs
}

// RunFigure1 runs the motivation experiment: memcached alone vs with
// competing netperf traffic, both plain TCP (Figure 1).
func RunFigure1(p MemcachedParams) ([]MemcachedResult, error) {
	return runMemcachedLines(p, []MemcachedScenario{
		{Name: "Memcached alone", WithBulk: false},
		{Name: "Memcached with netperf", WithBulk: true},
	})
}

// RunFigure11 runs all five scenario lines.
func RunFigure11(p MemcachedParams) ([]MemcachedResult, error) {
	return runMemcachedLines(p, Figure11Scenarios())
}

func runMemcachedLines(p MemcachedParams, scs []MemcachedScenario) ([]MemcachedResult, error) {
	var out []MemcachedResult
	for _, sc := range scs {
		r, err := RunMemcachedScenario(p, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
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
