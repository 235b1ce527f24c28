package flowsim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
)

const (
	mbps = 1e6 / 8
	gbps = 1e9 / 8
)

func testTree(t *testing.T) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           2,
		RacksPerPod:    4,
		ServersPerRack: 10,
		SlotsPerServer: 8,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    5,
		PodOversub:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func testClasses() []ClassConfig {
	return []ClassConfig{
		{ // class A (Table 3)
			Fraction: 0.5,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 0.25 * gbps,
				BurstBytes:   15e3,
				DelayBound:   1e-3,
				BurstRateBps: 1 * gbps,
			},
			AllToOne:   true,
			FlowBytes:  50e6,
			ComputeSec: 30,
		},
		{ // class B
			Fraction: 0.5,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 2 * gbps,
				BurstBytes:   1.5e3,
				BurstRateBps: 2 * gbps,
			},
			PermutationX: 1,
			FlowBytes:    500e6,
			ComputeSec:   30,
		},
	}
}

func runOne(t *testing.T, placer placement.Algorithm, mode Mode, occupancy float64) Result {
	t.Helper()
	return Run(Config{
		Tree:        testTree(t),
		Placer:      placer,
		Mode:        mode,
		AvgVMs:      12,
		Classes:     testClasses(),
		Occupancy:   occupancy,
		DurationSec: 600,
		EpochSec:    2,
		Seed:        42,
	})
}

// Every arrival is either accepted or rejected, and at high occupancy
// Silo's admission control does reject.
func TestRunCountsRejections(t *testing.T) {
	tree := testTree(t)
	res := Run(Config{
		Tree:        tree,
		Placer:      placement.NewManager(tree, placement.Options{}),
		Mode:        Reserved,
		AvgVMs:      12,
		Classes:     testClasses(),
		Occupancy:   0.9,
		DurationSec: 600,
		EpochSec:    2,
		Seed:        42,
	})
	if res.Rejected == 0 {
		t.Fatalf("no rejections at 90%% occupancy: %+v", res)
	}
	if res.Accepted+res.Rejected != res.Arrived {
		t.Errorf("%d accepted + %d rejected != %d arrived", res.Accepted, res.Rejected, res.Arrived)
	}
}

func TestRunBasicAccounting(t *testing.T) {
	tree := testTree(t)
	res := Run(Config{
		Tree:        tree,
		Placer:      placement.NewLocality(tree),
		Mode:        FairShare,
		AvgVMs:      12,
		Classes:     testClasses(),
		Occupancy:   0.5,
		DurationSec: 300,
		EpochSec:    2,
		Seed:        1,
	})
	if res.Arrived == 0 {
		t.Fatal("no arrivals")
	}
	if res.Accepted+res.Rejected != res.Arrived {
		t.Errorf("accounting mismatch: %d accepted + %d rejected != %d arrived", res.Accepted, res.Rejected, res.Arrived)
	}
	if res.ArrivedByClass[0]+res.ArrivedByClass[1] != res.Arrived {
		t.Error("class accounting mismatch")
	}
	if res.AvgUtilization < 0 || res.AvgUtilization > 1 {
		t.Errorf("utilization = %v out of [0,1]", res.AvgUtilization)
	}
	if res.CompletedJobs == 0 {
		t.Error("no jobs completed in 300 s")
	}
	if res.MeanJobSeconds <= 0 {
		t.Error("mean job duration not measured")
	}
}

func TestLocalityAcceptsMoreAtLowOccupancy(t *testing.T) {
	// At modest occupancy Locality accepts ~everything (slot-limited
	// only), while Silo rejects a few % (paper Fig. 15a).
	treeL := testTree(t)
	treeS := testTree(t)
	loc := Run(Config{Tree: treeL, Placer: placement.NewLocality(treeL), Mode: FairShare,
		AvgVMs: 12, Classes: testClasses(), Occupancy: 0.6, DurationSec: 600, EpochSec: 2, Seed: 7})
	silo := Run(Config{Tree: treeS, Placer: placement.NewManager(treeS, placement.Options{}), Mode: Reserved,
		AvgVMs: 12, Classes: testClasses(), Occupancy: 0.6, DurationSec: 600, EpochSec: 2, Seed: 7})
	if loc.AdmittedFrac() < 0.95 {
		t.Errorf("locality admitted only %.2f at 60%% occupancy", loc.AdmittedFrac())
	}
	if silo.AdmittedFrac() > loc.AdmittedFrac()+1e-9 {
		t.Errorf("silo admitted %.2f > locality %.2f at low occupancy", silo.AdmittedFrac(), loc.AdmittedFrac())
	}
	if silo.AdmittedFrac() < 0.5 {
		t.Errorf("silo admitted only %.2f; admission too strict", silo.AdmittedFrac())
	}
}

func TestReservedRatesRespectGuarantee(t *testing.T) {
	// A single all-to-one tenant with B bytes/sec per VM: aggregate
	// throughput into the receiver must be ≈ B, so the job takes
	// ≈ total bytes / B.
	tree := testTree(t)
	res := Run(Config{
		Tree:   tree,
		Placer: placement.NewManager(tree, placement.Options{}),
		Mode:   Reserved,
		AvgVMs: 8,
		Classes: []ClassConfig{{
			Fraction: 1,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 0.25 * gbps, BurstBytes: 15e3,
				DelayBound: 1e-3, BurstRateBps: gbps,
			},
			AllToOne:   true,
			FlowBytes:  10e6,
			ComputeSec: 1,
		}},
		Occupancy:   0.2,
		DurationSec: 400,
		EpochSec:    1,
		Seed:        3,
	})
	if res.CompletedJobs == 0 {
		t.Fatal("no completions")
	}
	// Sanity: job duration must exceed the receiver-bottleneck bound
	// (total bytes across N−1 flows at receiver rate B) for average
	// cases: (N−1)·10MB / 31.25MBps. With N≈8: 70MB/31.25MBps ≈ 2.2 s.
	if res.MeanJobSeconds < 1 {
		t.Errorf("mean job %.2f s: faster than reserved rate allows", res.MeanJobSeconds)
	}
}

func TestFairShareConservation(t *testing.T) {
	// Under fair share, utilization never exceeds 1 and jobs finish
	// faster when the DC is emptier.
	treeA := testTree(t)
	busy := Run(Config{Tree: treeA, Placer: placement.NewLocality(treeA), Mode: FairShare,
		AvgVMs: 12, Classes: testClasses(), Occupancy: 0.9, DurationSec: 400, EpochSec: 2, Seed: 5})
	treeB := testTree(t)
	idle := Run(Config{Tree: treeB, Placer: placement.NewLocality(treeB), Mode: FairShare,
		AvgVMs: 12, Classes: testClasses(), Occupancy: 0.2, DurationSec: 400, EpochSec: 2, Seed: 5})
	if busy.AvgUtilization > 1 || idle.AvgUtilization > 1 {
		t.Error("utilization above 1")
	}
	if busy.AvgOccupancy <= idle.AvgOccupancy {
		t.Errorf("occupancy did not track arrival rate: busy %.2f vs idle %.2f",
			busy.AvgOccupancy, idle.AvgOccupancy)
	}
}

func TestAdmittedFracHelpers(t *testing.T) {
	r := Result{Arrived: 10, Accepted: 8,
		ArrivedByClass: []int{4, 6}, AcceptedByClass: []int{4, 4}}
	if r.AdmittedFrac() != 0.8 {
		t.Errorf("AdmittedFrac = %v", r.AdmittedFrac())
	}
	if r.AdmittedFracClass(0) != 1 || r.AdmittedFracClass(1) < 0.66 {
		t.Error("per-class fractions wrong")
	}
	empty := Result{ArrivedByClass: []int{0}, AcceptedByClass: []int{0}}
	if empty.AdmittedFrac() != 0 || empty.AdmittedFracClass(0) != 0 {
		t.Error("empty result should report 0")
	}
}

func TestArrivalRateOverride(t *testing.T) {
	tree := testTree(t)
	base := Run(Config{Tree: tree, Placer: placement.NewLocality(tree), Mode: FairShare,
		AvgVMs: 12, Classes: testClasses(), Occupancy: 0.5, DurationSec: 200, EpochSec: 2, Seed: 9})
	if base.ArrivalRateUsed <= 0 {
		t.Fatal("arrival rate not reported")
	}
	tree2 := testTree(t)
	doubled := Run(Config{Tree: tree2, Placer: placement.NewLocality(tree2), Mode: FairShare,
		AvgVMs: 12, Classes: testClasses(), Occupancy: 0.5, DurationSec: 200, EpochSec: 2, Seed: 9,
		ArrivalRate: base.ArrivalRateUsed * 2})
	if doubled.ArrivalRateUsed != base.ArrivalRateUsed*2 {
		t.Errorf("override not honored: %v vs %v", doubled.ArrivalRateUsed, base.ArrivalRateUsed*2)
	}
	if doubled.Arrived <= base.Arrived {
		t.Errorf("doubled rate should produce more arrivals: %d vs %d", doubled.Arrived, base.Arrived)
	}
}

// The same Config gives the same Result, to the bit, in both modes:
// port loads are summed in port-ID order, not in map order.
func TestRunReproducible(t *testing.T) {
	for _, mode := range []Mode{Reserved, FairShare} {
		run := func() Result {
			tree := testTree(t)
			var placer placement.Algorithm = placement.NewLocality(tree)
			if mode == Reserved {
				placer = placement.NewManager(tree, placement.Options{})
			}
			return runOne(t, placer, mode, 0.8)
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Errorf("mode %d: two runs of one Config differ:\n%+v\n%+v", mode, a, b)
		}
	}
}

// brokenPlacer is a Locality placer whose n-th Place, or n-th Remove,
// fails with an error that is not a rejection.
type brokenPlacer struct {
	placement.Algorithm
	failPlace, failRemove int
	places, removes       int
}

var errBroken = errors.New("placer broke")

func (p *brokenPlacer) Place(spec tenant.Spec) (*tenant.Placement, error) {
	if p.places++; p.places == p.failPlace {
		return nil, errBroken
	}
	return p.Algorithm.Place(spec)
}

func (p *brokenPlacer) Remove(id int) error {
	if p.removes++; p.removes == p.failRemove {
		return errBroken
	}
	return p.Algorithm.Remove(id)
}

// A placement failure that is not a rejection stops the run and is
// reported with the tenant it hit; every arrival counted before it has
// a verdict.
func TestRunSurfacesPlacementErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		placer brokenPlacer
		op     string
	}{
		{"place", brokenPlacer{failPlace: 20}, "place tenant 20"},
		{"remove", brokenPlacer{failRemove: 5}, "remove tenant"},
	} {
		tree := testTree(t)
		p := tc.placer
		p.Algorithm = placement.NewLocality(tree)
		res := runOne(t, &p, FairShare, 0.8)
		if !errors.Is(res.Err, errBroken) || !strings.Contains(res.Err.Error(), tc.op) {
			t.Errorf("%s: Err = %v, want %q wrapping the placer's error", tc.name, res.Err, tc.op)
		}
		if res.Arrived != res.Accepted+res.Rejected {
			t.Errorf("%s: %d arrived != %d accepted + %d rejected", tc.name, res.Arrived, res.Accepted, res.Rejected)
		}
		if tc.name == "place" && (res.Arrived != 19 || p.places != 20) {
			t.Errorf("place: run went on after the error: %d arrivals, %d Place calls", res.Arrived, p.places)
		}
		if tc.name == "remove" && (p.removes != 5 || res.CompletedJobs != 4) {
			t.Errorf("remove: run went on after the error: %d Remove calls, %d jobs", p.removes, res.CompletedJobs)
		}
	}
	if res := runOne(t, placement.NewLocality(testTree(t)), FairShare, 0.8); res.Err != nil {
		t.Errorf("clean run reports %v", res.Err)
	}
}
