package flowsim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/run.golden from this run")

// goldenRuns renders every Result field of Reserved × {silo, oktopus}
// and FairShare × locality on the test tree, at two seeds and three
// Permutation-x settings, plus one row per mode with a sub-second epoch
// (intra-server flows then decay geometrically instead of draining in
// one step). Counts are exact; AvgUtilization keeps nine digits because
// its last bits are the one thing a re-ordered port sum may move.
func goldenRuns(t *testing.T) string {
	t.Helper()
	type setup struct {
		name   string
		mode   Mode
		placer func(*topology.Tree) placement.Algorithm
	}
	setups := []setup{
		{"reserved/silo", Reserved, func(tr *topology.Tree) placement.Algorithm {
			return placement.NewManager(tr, placement.Options{})
		}},
		{"reserved/oktopus", Reserved, func(tr *topology.Tree) placement.Algorithm { return placement.NewOktopus(tr) }},
		{"fairshare/locality", FairShare, func(tr *topology.Tree) placement.Algorithm { return placement.NewLocality(tr) }},
	}
	var b strings.Builder
	row := func(s setup, seed uint64, x, epoch float64) {
		tree := testTree(t)
		// Flows large enough that the allocated rates, not the compute
		// time, decide when most jobs end.
		classes := testClasses()
		classes[0].FlowBytes, classes[0].ComputeSec = 100e6, 10
		classes[1].FlowBytes, classes[1].ComputeSec = 5e9, 10
		classes[1].PermutationX = x
		r := Run(Config{
			Tree: tree, Placer: s.placer(tree), Mode: s.mode, AvgVMs: 12, Classes: classes,
			Occupancy: 0.8, DurationSec: 600, EpochSec: epoch, Seed: seed,
		})
		fmt.Fprintf(&b, "%s seed=%d x=%g epoch=%g: arrived=%d accepted=%d rejected=%d byclass=%v/%v jobs=%d meanjob=%.12g occ=%.12g util=%.9g rate=%.12g\n",
			s.name, seed, x, epoch, r.Arrived, r.Accepted, r.Rejected, r.ArrivedByClass, r.AcceptedByClass,
			r.CompletedJobs, r.MeanJobSeconds, r.AvgOccupancy, r.AvgUtilization, r.ArrivalRateUsed)
	}
	for _, s := range setups {
		for _, seed := range []uint64{42, 7} {
			for _, x := range []float64{0.5, 1, 2} {
				row(s, seed, x, 2)
			}
		}
		row(s, 42, 1, 0.5)
	}
	return b.String()
}

// The flow simulator's results are pinned field by field, so that its
// allocation loops can be rebuilt without moving a count or a rate.
func TestRunGolden(t *testing.T) {
	const path = "testdata/run.golden"
	got := goldenRuns(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("Run differs from %s at line %d (rerun with -update if intended):\n got %s\nwant %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("Run differs from %s: got %d lines, want %d", path, len(g), len(w))
	}
}
