package workload

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// refPermutation and refPerm are the Permutation-x builder and
// stats.Rand.Perm that AppendEdges and Rand.PermInto replaced, kept as
// the oracle the equivalence property replays: one [][]int per tenant
// and a fresh permutation per sending VM.
func refPermutation(n int, x float64, rng *stats.Rand) Pattern {
	p := make(Pattern, n)
	if n < 2 {
		return p
	}
	whole := int(x)
	frac := x - float64(whole)
	for i := 0; i < n; i++ {
		k := whole
		if frac > 0 && rng.Float64() < frac {
			k++
		}
		if k > n-1 {
			k = n - 1
		}
		if k == 0 {
			continue
		}
		perm := refPerm(rng, n)
		for _, j := range perm {
			if j == i {
				continue
			}
			p[i] = append(p[i], j)
			if len(p[i]) == k {
				break
			}
		}
	}
	return p
}

func refPerm(r *stats.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// flatten lists a pattern's edges, sources ascending, each source's
// receivers in order.
func flatten(p Pattern) []Edge {
	var out []Edge
	for src, dsts := range p {
		for _, dst := range dsts {
			out = append(out, Edge{src, dst})
		}
	}
	return out
}

// AppendEdges yields the oracle's (src, dst) sequence and leaves the rng
// at the oracle's next draw, for n in [0, 300], x in {0, 0.3, 1, 2.5, n}
// and fresh seeds, appending behind earlier edges into reused scratch;
// all-to-one yields AllToOne's edges and draws nothing. Rand.PermInto
// matches refPerm's draws into a dirty buffer of any size.
func TestAppendEdgesEquivalenceProperty(t *testing.T) {
	var edges []Edge
	var perm []int
	check := func(seed uint64, nRaw uint16, xIdx uint8) bool {
		n := int(nRaw) % 301
		x := [...]float64{0, 0.3, 1, 2.5, float64(n)}[int(xIdx)%5]
		in := fmt.Sprintf("seed %#x n %d x %g", seed, n, x)

		ref, got := stats.NewRand(seed), stats.NewRand(seed)
		want := refPermutation(n, x, ref)
		prefix := len(edges)
		edges, perm = AppendEdges(edges, perm, n, false, x, got)
		if !slices.Equal(edges[prefix:], flatten(want)) {
			t.Errorf("%s: AppendEdges = %v, want %v", in, edges[prefix:], flatten(want))
			return false
		}
		if a, b := got.Uint64(), ref.Uint64(); a != b {
			t.Errorf("%s: next draw %#x after AppendEdges, %#x after the oracle", in, a, b)
			return false
		}

		edges, perm = AppendEdges(edges[:0], perm, n, true, x, got)
		if !slices.Equal(edges, flatten(AllToOne(n))) {
			t.Errorf("%s: all-to-one edges = %v, want %v", in, edges, flatten(AllToOne(n)))
			return false
		}
		if a, b := got.Uint64(), ref.Uint64(); a != b {
			t.Errorf("%s: all-to-one drew from the rng", in)
			return false
		}

		perm = got.PermInto(perm, n)
		if wantPerm := refPerm(ref, n); !slices.Equal(perm, wantPerm) {
			t.Errorf("%s: PermInto = %v, want %v", in, perm, wantPerm)
			return false
		}
		return got.Uint64() == ref.Uint64()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
