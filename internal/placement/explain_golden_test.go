package placement

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/tenant"
)

var update = flag.Bool("update", false, "rewrite testdata/explain.golden from this run")

// goldenSpec draws tenants heavy enough for mustSmallTree to turn them
// away for every reason the journal can give: up to a rack and a half
// of VMs, bursts up to 40 KB, and delay bounds from none down to one no
// two servers can meet.
func goldenSpec(rng *stats.Rand, id int) tenant.Spec {
	vms := 2 + rng.Intn(11)
	if rng.Float64() < 0.25 {
		vms = 12 + rng.Intn(14)
	}
	return tenant.Spec{
		ID: id, Name: "golden", VMs: vms, FaultDomains: 1 + rng.Intn(2),
		Guarantee: tenant.Guarantee{
			BandwidthBps: float64(1+rng.Intn(30)) * 100 * mbps,
			BurstBytes:   float64(1+rng.Intn(16)) * 2.5e3,
			DelayBound:   []float64{0, 0, 100e-6, 5e-4, 1e-3, 2e-3}[rng.Intn(6)],
			BurstRateBps: float64(3+rng.Intn(8)) * gbps,
		},
	}
}

// explainGoldenStream replays a fixed 60-operation place/remove stream
// on mustSmallTree with the journal on and returns Explain for every
// tenant it asked for, in ID order.
func explainGoldenStream(t *testing.T) string {
	t.Helper()
	m := NewManager(mustSmallTree(), Options{})
	m.EnableJournal()
	rng := stats.NewRand(75)
	var live []int
	id := 0
	for op := 0; op < 60; op++ {
		if len(live) > 0 && rng.Float64() < 0.15 {
			i := rng.Intn(len(live))
			if err := m.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			continue
		}
		id++
		if _, err := m.Place(goldenSpec(rng, id)); err == nil {
			live = append(live, id)
		}
	}
	var b bytes.Buffer
	for i := 1; i <= id; i++ {
		b.WriteString(m.Explain(i))
	}
	return b.String()
}

// The rejection journal's wording, limiting ports and bounds are pinned
// byte for byte, so that the explanation can be rebuilt on top of the
// search's own functions without changing what an operator reads.
func TestExplainGolden(t *testing.T) {
	const path = "testdata/explain.golden"
	got := explainGoldenStream(t)
	for _, kind := range []string{
		"constraint 1: server ",
		"constraint 1: packed layout ",
		"constraint 2: ",
		"insufficient free slots: ",
		"ACCEPTED",
	} {
		if !strings.Contains(got, kind) {
			t.Errorf("stream produces no %q decision", kind)
		}
	}
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
		t.Errorf("Explain output differs from %s (rerun with -update if intended):\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff shows the first line where two texts part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
