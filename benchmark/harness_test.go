package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func seededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The tail percentile a sample supports is the highest with at least
// ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {6000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n")
	if err != nil || got != 20 {
		t.Errorf("parseVmHWM = %g, %v; want 20 MB", got, err)
	}
	if _, err := parseVmHWM("Name:\tbench\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

// A span's self time is its duration minus what its children cover.
func TestSelfSeconds(t *testing.T) {
	tr := &tracer{workload: "w"}
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "setup", StartNs: 0, EndNs: 10e9},
		{ID: 1, Parent: 0, Name: "topology.new", StartNs: 1e9, EndNs: 4e9},
		{ID: 2, Parent: 0, Name: "placement.admit", StartNs: 4e9, EndNs: 6e9},
		{ID: 3, Parent: 0, Name: "placement.admit", StartNs: 6e9, EndNs: 7e9},
	}
	self, tot := selfSeconds(tr.spans), totalSeconds(tr.spans)
	if self["setup"] != 4 || self["topology.new"] != 3 || self["placement.admit"] != 3 {
		t.Errorf("self = %v", self)
	}
	if tot["setup"] != 10 || tot["placement.admit"] != 3 {
		t.Errorf("total = %v", tot)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 {
		t.Errorf("parents = %d, %d", tr.spans[a].Parent, tr.spans[b].Parent)
	}
	var none *tracer
	none.end(none.begin("x")) // a nil tracer records nothing
}

// Every seed gets the same multiset of sizes in a different order.
func TestStratifiedExp(t *testing.T) {
	a := sortedCopy(stratifiedExp(seededRand(1), 1000, 49))
	b := sortedCopy(stratifiedExp(seededRand(2), 1000, 49))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stratum %d differs between seeds: %g vs %g", i, a[i], b[i])
		}
	}
	if m := mean(a); math.Abs(m-49) > 1 {
		t.Errorf("mean = %g, want about 49", m)
	}
	if reflect.DeepEqual(stratifiedExp(seededRand(1), 1000, 49), stratifiedExp(seededRand(2), 1000, 49)) {
		t.Error("two seeds gave the same order")
	}
}
