package workload

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestETCGeneratorMonotoneAndBounded(t *testing.T) {
	g := NewETCGenerator(ETCGapScale, stats.NewRand(1), 0)
	prev := int64(-1)
	for i := 0; i < 10000; i++ {
		r := g.Next()
		if r.At < prev {
			t.Fatalf("time went backwards at %d", i)
		}
		prev = r.At
		if r.ValueBytes < 1 || r.ValueBytes > 1024 {
			t.Fatalf("value size %d out of [1,1024]", r.ValueBytes)
		}
	}
}

func TestETCMeanValueNearPaper(t *testing.T) {
	// Paper §6.1: "the average value size in our workload is 300 B".
	mean := ETCMeanValueBytes(stats.NewRand(2), 200000)
	if mean < 250 || mean > 350 {
		t.Errorf("mean value = %.1f B, want ≈300", mean)
	}
}

func TestETCBandwidthNearPaper(t *testing.T) {
	// Paper §6.1: average bandwidth requirement ≈ 210 Mbps for the
	// aggregate client load. Our single generator's offered value
	// bandwidth is mean_value / mean_gap; verify it is in a plausible
	// tens-of-Mbps range per client (the testbed aggregates 14
	// clients).
	g := NewETCGenerator(ETCGapScale, stats.NewRand(3), 0)
	var bytes int64
	var last int64
	const n = 200000
	for i := 0; i < n; i++ {
		r := g.Next()
		bytes += int64(r.ValueBytes)
		last = r.At
	}
	bps := float64(bytes) / (float64(last) / 1e9)
	// Mean gap ≈ 19 µs, mean value ≈ 300 B -> ≈ 16 MB/s ≈ 128 Mbps
	// per generator; 14 clients share it in the harness by scaling
	// gaps. Just sanity-check the order of magnitude.
	if bps < 1e6 || bps > 1e9 {
		t.Errorf("offered load = %.3g B/s, implausible", bps)
	}
}

func TestPoissonMessagesRate(t *testing.T) {
	const size = 10000
	const bw = 1e6 // bytes/sec
	g := NewPoissonMessages(size, bw, stats.NewRand(4), 0)
	var last int64
	const n = 100000
	for i := 0; i < n; i++ {
		last = g.Next()
	}
	got := float64(n) * size / (float64(last) / 1e9)
	if math.Abs(got-bw)/bw > 0.05 {
		t.Errorf("offered bandwidth = %.3g, want ≈%.3g", got, bw)
	}
}

func TestAllToOne(t *testing.T) {
	p := AllToOne(5)
	if len(p[0]) != 0 {
		t.Error("aggregator should not send")
	}
	for i := 1; i < 5; i++ {
		if len(p[i]) != 1 || p[i][0] != 0 {
			t.Errorf("VM %d dsts = %v", i, p[i])
		}
	}
	if p.Edges() != 4 {
		t.Errorf("edges = %d", p.Edges())
	}
}

func TestAllToAll(t *testing.T) {
	p := AllToAll(4)
	if p.Edges() != 12 {
		t.Errorf("edges = %d, want 12", p.Edges())
	}
	for i, dsts := range p {
		seen := map[int]bool{}
		for _, d := range dsts {
			if d == i || seen[d] {
				t.Fatalf("bad dsts for %d: %v", i, dsts)
			}
			seen[d] = true
		}
	}
}

func TestPermutationWhole(t *testing.T) {
	rng := stats.NewRand(5)
	p := permutation(10, 2, rng)
	for i, dsts := range p {
		if len(dsts) != 2 {
			t.Errorf("VM %d has %d dsts, want 2", i, len(dsts))
		}
		for _, d := range dsts {
			if d == i {
				t.Errorf("self-loop at %d", i)
			}
		}
	}
}

func TestPermutationFractional(t *testing.T) {
	rng := stats.NewRand(6)
	p := permutation(1000, 0.5, rng)
	n := 0
	for _, dsts := range p {
		if len(dsts) > 1 {
			t.Fatalf("Permutation-0.5 gave %d dsts", len(dsts))
		}
		n += len(dsts)
	}
	if n < 400 || n > 600 {
		t.Errorf("Permutation-0.5 edges = %d of 1000, want ≈500", n)
	}
}

func TestPermutationClamps(t *testing.T) {
	rng := stats.NewRand(7)
	p := permutation(3, 10, rng)
	for i, dsts := range p {
		if len(dsts) != 2 {
			t.Errorf("VM %d: %d dsts, want clamped 2", i, len(dsts))
		}
	}
	if out := permutation(1, 1, rng); out.Edges() != 0 {
		t.Error("single-VM permutation should be empty")
	}
}

func TestPermutationDeterministic(t *testing.T) {
	a := permutation(20, 3, stats.NewRand(42))
	b := permutation(20, 3, stats.NewRand(42))
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("nondeterministic permutation")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic permutation")
			}
		}
	}
}

// permutation groups AppendEdges' Permutation-x edges by source.
func permutation(n int, x float64, rng *stats.Rand) Pattern {
	p := make(Pattern, n)
	edges, _ := AppendEdges(nil, nil, n, false, x, rng)
	for _, e := range edges {
		p[e.Src] = append(p[e.Src], e.Dst)
	}
	return p
}
