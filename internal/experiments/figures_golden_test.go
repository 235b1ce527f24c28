package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"repro/internal/core"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// checkGolden compares got with testdata/<name>.golden; -update
// rewrites the file first.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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
		t.Errorf("output differs from %s (rerun with -update if intended):\n%s", path, firstDiff(got, string(want)))
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

// The figure runners' rendered output, pinned: event insertion order
// and RNG draw order decide tie-breaks in the engine, so a refactor of
// how tenants are deployed, coordinated or driven shows here as a
// changed byte.

// All six schemes on a reduced tree — the only pinned run of DCTCP,
// HULL, Okto and Okto+.
func TestComparisonGolden(t *testing.T) {
	p := DefaultComparisonParams()
	p.Racks = 5
	p.DurationSec = 0.003
	p.ClassBMsgBytes = 256 << 10
	p.Seed = 12 // three class-A and three class-B tenants; TCP, DCTCP and HULL drop
	rs, err := RunComparison(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(core.AllSchemes) {
		t.Fatalf("%d results for %d schemes", len(rs), len(core.AllSchemes))
	}
	var b strings.Builder
	b.WriteString(RenderComparison(rs))
	b.WriteString("\nadmitted VMs / tenants / messages / RTO messages:\n")
	for _, r := range rs {
		msgs, rto := 0, 0
		for _, ts := range r.Tenants {
			msgs += ts.Messages
			rto += ts.MessagesRTO
		}
		fmt.Fprintf(&b, "%-8s %d %d %d %d\n", r.Scheme, r.AdmittedVMs, len(r.Tenants), msgs, rto)
	}
	checkGolden(t, "comparison", b.String())
}

// Fig. 11: a TCP line, a Silo line on the dynamic-epoch hose loop (the
// default), and the same Silo line on the static peak / fair-share
// fixed points.
func TestMemcachedGolden(t *testing.T) {
	p := DefaultMemcachedParams()
	p.DurationSec = 0.01
	a, g := Table2Guarantees(2)
	static := p
	static.DynamicHoseEpochNs = 0
	var rs []MemcachedResult
	for _, c := range []struct {
		p  MemcachedParams
		sc MemcachedScenario
	}{
		{p, MemcachedScenario{Name: "TCP", WithBulk: true}},
		{p, MemcachedScenario{Name: "Silo req2 dynamic", WithBulk: true, GuaranteeA: &a, GuaranteeB: &g}},
		{static, MemcachedScenario{Name: "Silo req2 static", WithBulk: true, GuaranteeA: &a, GuaranteeB: &g}},
	} {
		r, err := RunMemcachedScenario(c.p, c.sc)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	var b strings.Builder
	b.WriteString(RenderMemcached(rs))
	for _, r := range rs {
		fmt.Fprintf(&b, "%s: issued=%d completed=%d bulkBytes=%d %s\n", r.Scenario,
			r.RequestsIssued, r.RequestsCompleted, r.BulkBytes, r.Latencies.Summary("µs"))
	}
	checkGolden(t, "memcached", b.String())
}

func TestBestEffortGolden(t *testing.T) {
	p := DefaultBestEffortParams()
	p.DurationSec = 0.01
	r, err := RunBestEffort(p)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "besteffort", r.Render())
}

func TestBurstStressGolden(t *testing.T) {
	rs, err := RunBurstStressComparison(DefaultBurstStressParams())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "burststress", RenderBurstStress(rs))
}

// Fig. 5 at packet level with the flight trace and the incident plane
// on: the paced run, and the unpaced one under the tightened audit
// bound (the run that has incidents to report).
func TestFigure5SimGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range []Figure5SimParams{
		{DurationSec: 0.005, TraceSampleN: 1, Incidents: true},
		{DurationSec: 0.005, TraceSampleN: 1, Incidents: true, Scheme: core.SchemeTCP, AuditDelayBoundSec: 350e-6},
	} {
		r, err := RunFigure5Sim(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", p.Scheme, r.Render())
	}
	checkGolden(t, "fig5sim", b.String())
}

func TestFailureDrillGolden(t *testing.T) {
	r, err := RunFailureDrill(DefaultFailureDrillParams())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "failuredrill", r.Render())
}
