package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flowsim"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/units"
)

// ScaleParams configures the flow-level §6.3 experiments (Figures 15
// and 16). The paper models 32 K servers; this tree is scaled down to
// 2 pods × 5 racks × 20 servers × 4 slots with the same three-tier 1:5
// oversubscription, and tenants average 12 VMs over 800 simulated
// seconds in 2 s epochs.
type ScaleParams struct {
	// PermutationX is class-B's traffic pattern (Figure 16b sweeps
	// it).
	PermutationX float64
	Seed         uint64
	// durationSec is the simulated horizon: scaleDurationSec, which
	// tests and benchmarks shorten.
	durationSec float64
}

// scaleDurationSec is the §6.3 runs' simulated horizon.
const scaleDurationSec = 800

// DefaultScaleParams returns a laptop-scale §6.3 configuration.
func DefaultScaleParams() ScaleParams {
	return ScaleParams{PermutationX: 1, Seed: 21, durationSec: scaleDurationSec}
}

func scaleTree() (*topology.Tree, error) {
	return topology.New(TenGbE(2, 5, 20, 4, 5, 5))
}

func (p ScaleParams) classes() []flowsim.ClassConfig {
	return []flowsim.ClassConfig{
		{ // class A (Table 3)
			Fraction: 0.5,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 0.25 * units.Gbps,
				BurstBytes:   15e3,
				DelayBound:   1e-3,
				BurstRateBps: 1 * units.Gbps,
			},
			AllToOne:   true,
			FlowBytes:  50e6,
			ComputeSec: 5,
		},
		{ // class B: data-parallel jobs whose transfer time at the
			// guaranteed rate dominates their compute time, so network
			// performance governs job duration (and hence slot
			// occupancy — the mechanism behind Figure 15's crossover).
			Fraction: 0.5,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 2 * units.Gbps,
				BurstBytes:   1.5e3,
				BurstRateBps: 2 * units.Gbps,
			},
			PermutationX: p.PermutationX,
			FlowBytes:    10e9,
			ComputeSec:   5,
		},
	}
}

// ScalePoint is one (placer, occupancy) outcome.
type ScalePoint struct {
	Placer    string
	Occupancy float64
	Result    flowsim.Result
}

// scalePlacers names the three placers of §6.3 by the scheme that owns
// each, with how the flow-level model shares bandwidth under it.
var scalePlacers = map[string]struct {
	scheme core.Scheme
	mode   flowsim.Mode
}{
	"silo":     {core.SchemeSilo, flowsim.Reserved},
	"oktopus":  {core.SchemeOkto, flowsim.Reserved},
	"locality": {core.SchemeTCP, flowsim.FairShare},
}

// RunScalePoint runs one flow-level simulation.
func RunScalePoint(p ScaleParams, placerName string, occupancy float64) (ScalePoint, error) {
	pl, ok := scalePlacers[placerName]
	if !ok {
		return ScalePoint{}, fmt.Errorf("unknown placer %q", placerName)
	}
	tree, err := scaleTree()
	if err != nil {
		return ScalePoint{}, err
	}
	// Calibrate the arrival rate so every placer is compared at the
	// same ACHIEVED occupancy (the paper's x-axis): a placer whose
	// jobs finish faster (work conservation) or slower (reservations)
	// would otherwise sit at a different operating point.
	cfg := flowsim.Config{
		Tree:        tree,
		Placer:      pl.scheme.Placer(tree),
		Mode:        pl.mode,
		AvgVMs:      12,
		Classes:     p.classes(),
		Occupancy:   occupancy,
		DurationSec: p.durationSec,
		EpochSec:    2,
		Seed:        p.Seed,
	}
	res := flowsim.Run(cfg)
	for iter := 0; iter < 4 && res.Err == nil; iter++ {
		if res.AvgOccupancy <= 0 {
			break
		}
		ratio := occupancy / res.AvgOccupancy
		if ratio > 0.95 && ratio < 1.05 {
			break
		}
		if ratio > 3 {
			ratio = 3
		}
		cfg.ArrivalRate = res.ArrivalRateUsed * ratio
		// Placers are stateful; rebuild for each calibration run.
		if cfg.Tree, err = scaleTree(); err != nil {
			return ScalePoint{}, err
		}
		cfg.Placer = pl.scheme.Placer(cfg.Tree)
		res = flowsim.Run(cfg)
	}
	return ScalePoint{Placer: placerName, Occupancy: occupancy, Result: res}, res.Err
}

// RunFigure15 evaluates admitted-request fractions at the paper's two
// occupancy points for all three placers.
func RunFigure15(p ScaleParams) ([]ScalePoint, error) {
	return RunFigure16a(p, []float64{0.75, 0.9})
}

// RunFigure16a sweeps occupancy for all three placers.
func RunFigure16a(p ScaleParams, occupancies []float64) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, occ := range occupancies {
		for _, placer := range []string{"locality", "oktopus", "silo"} {
			pt, err := RunScalePoint(p, placer, occ)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// RunFigure16b sweeps the Permutation-x density at 90% occupancy.
func RunFigure16b(p ScaleParams, xs []float64) (map[float64][]ScalePoint, error) {
	out := map[float64][]ScalePoint{}
	for _, x := range xs {
		px := p
		px.PermutationX = x
		for _, placer := range []string{"locality", "oktopus", "silo"} {
			pt, err := RunScalePoint(px, placer, 0.9)
			if err != nil {
				return nil, err
			}
			out[x] = append(out[x], pt)
		}
	}
	return out, nil
}

// RenderScalePoints formats Figure-15/16 style rows.
func RenderScalePoints(points []ScalePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %12s %10s\n",
		"placer", "occupancy", "admit%", "admitA%", "admitB%", "utilization%", "jobs")
	for _, pt := range points {
		r := pt.Result
		fmt.Fprintf(&b, "%-10s %10.2f %10.1f %10.1f %10.1f %12.1f %10d\n",
			pt.Placer, pt.Occupancy,
			100*r.AdmittedFrac(),
			100*r.AdmittedFracClass(0),
			100*r.AdmittedFracClass(1),
			100*r.AvgUtilization,
			r.CompletedJobs)
	}
	return b.String()
}

// PlacementBenchParams configures the placement-manager scalability
// microbenchmark (paper §5: 100 K hosts, mean 49-VM tenants, max
// placement time 1.15 s over 100 K requests): 25 pods × 40 racks × 100
// servers × 8 slots.
type PlacementBenchParams struct {
	Requests int
	Seed     uint64
	// tree is the datacenter: the 100 K-host one, which tests shrink.
	tree topology.Config
}

// DefaultPlacementBenchParams mirrors the paper's 100 K-host setup at
// a CI-friendly request count.
func DefaultPlacementBenchParams() PlacementBenchParams {
	return PlacementBenchParams{Requests: 2000, Seed: 5, tree: TenGbE(25, 40, 100, 8, 5, 5)}
}

// PlacementBenchResult summarizes placement times.
type PlacementBenchResult struct {
	Hosts          int
	Requests       int
	Accepted       int
	MeanNs, MaxNs  int64
	P50Ns, P99Ns   int64
	TotalElapsedNs int64
	// AllocsPerOp is the heap allocations per request over the whole
	// churn loop (place + occasional remove), from runtime.MemStats.
	AllocsPerOp int64
}

// RunPlacementBench measures wall-clock placement time per request on
// a full-scale datacenter, with tenant churn (completed tenants leave
// so the datacenter reaches steady occupancy).
func RunPlacementBench(p PlacementBenchParams) (PlacementBenchResult, error) {
	tree, err := topology.New(p.tree)
	if err != nil {
		return PlacementBenchResult{}, err
	}
	m := placement.NewManager(tree, placement.Options{})
	rng := stats.NewRand(p.Seed)
	times := stats.NewSample(p.Requests)
	res := PlacementBenchResult{Hosts: tree.Servers(), Requests: p.Requests}
	var liveIDs []int
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < p.Requests; i++ {
		vms := int(rng.Exp(49))
		if vms < 2 {
			vms = 2
		}
		classA := rng.Float64() < 0.5
		g := tenant.Guarantee{
			BandwidthBps: 0.25 * units.Gbps, BurstBytes: 15e3,
			DelayBound: 1e-3, BurstRateBps: 1 * units.Gbps,
		}
		if !classA {
			g = tenant.Guarantee{BandwidthBps: 2 * units.Gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * units.Gbps}
		}
		spec := tenant.Spec{ID: i + 1, Name: "bench", VMs: vms, Guarantee: g, FaultDomains: 2}
		t0 := time.Now()
		_, err := m.Place(spec)
		dt := time.Since(t0).Nanoseconds()
		times.Add(float64(dt))
		if err == nil {
			res.Accepted++
			liveIDs = append(liveIDs, spec.ID)
		}
		// Churn: remove an old tenant every other request, holding
		// occupancy near steady state.
		if i%2 == 1 && len(liveIDs) > 50 {
			idx := rng.Intn(len(liveIDs))
			_ = m.Remove(liveIDs[idx])
			liveIDs[idx] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		}
	}
	res.TotalElapsedNs = time.Since(start).Nanoseconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if p.Requests > 0 {
		res.AllocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / int64(p.Requests)
	}
	res.MeanNs = int64(times.Mean())
	res.MaxNs = int64(times.Max())
	res.P50Ns = int64(times.Percentile(50))
	res.P99Ns = int64(times.Percentile(99))
	return res, nil
}

// Render formats the microbenchmark.
func (r PlacementBenchResult) Render() string {
	return fmt.Sprintf(
		"hosts=%d requests=%d accepted=%d mean=%.3fms p50=%.3fms p99=%.3fms max=%.3fms total=%.1fs allocs/op=%d\n",
		r.Hosts, r.Requests, r.Accepted,
		float64(r.MeanNs)/1e6, float64(r.P50Ns)/1e6, float64(r.P99Ns)/1e6, float64(r.MaxNs)/1e6,
		float64(r.TotalElapsedNs)/1e9, r.AllocsPerOp)
}
