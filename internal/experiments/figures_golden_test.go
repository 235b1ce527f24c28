package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
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

// All six schemes over testdata/comparison.json, the seed-12 tenant
// stream on a 5-rack tree with 256 KB class-B messages over 3 ms: three
// class-A and three class-B tenants admitted, and TCP, DCTCP and HULL
// drop. cmd/silo-bench's all.golden pins the comparison again on the
// default tree (fig12).
func TestComparisonGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/comparison.json")
	if err != nil {
		t.Fatal(err)
	}
	scs, err := decodeScenarios(data)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := runComparison(scs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(core.AllSchemes) {
		t.Fatalf("%d results for %d schemes", len(rs), len(core.AllSchemes))
	}
	var b strings.Builder
	b.WriteString(RenderComparison(rs))
	b.WriteString("\nadmitted VMs / tenants / messages / RTO messages:\n")
	for _, run := range rs {
		vms, msgs, rto := 0, 0, 0
		for _, tr := range run.Tenants {
			vms += tr.Tenant.Spec.VMs
			msgs += tr.Messages
			rto += tr.MessagesRTO
		}
		fmt.Fprintf(&b, "%-8s %d %d %d %d\n", run.Scenario.Scheme, vms, len(run.Tenants), msgs, rto)
	}
	checkGolden(t, "comparison", b.String())
}

// Fig. 11: a TCP line and a Silo line on the dynamic-epoch hose loop.
func TestMemcachedGolden(t *testing.T) {
	fig11 := mustScenarios(t, "fig11")
	lines := []Scenario{fig11[1], fig11[3]} // TCP, Silo req2
	lines[1].Name = "Silo req2 dynamic"
	for i := range lines {
		lines[i].HorizonNs = 10e6
	}
	runs, err := RunLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(RenderMemcached(runs))
	for _, run := range runs {
		a, bulkBytes := run.Tenants[0], int64(0)
		if len(run.Tenants) > 1 {
			bulkBytes = run.Tenants[1].BytesReceived
		}
		fmt.Fprintf(&b, "%s: issued=%d completed=%d bulkBytes=%d %s\n", run.Scenario.Name,
			a.Messages, a.LatencyUs.Len(), bulkBytes, a.LatencyUs.Summary("µs"))
	}
	checkGolden(t, "memcached", b.String())
}

func TestBestEffortGolden(t *testing.T) {
	lines := mustScenarios(t, "besteffort")
	for i := range lines {
		lines[i].HorizonNs = 10e6
	}
	runs, err := RunBestEffort(lines)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "besteffort", RenderBestEffort(runs))
}

func TestBurstStressGolden(t *testing.T) {
	rs, err := RunLines(mustScenarios(t, "burststress"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "burststress", RenderBurstStress(rs))
}

// Fig. 5 at packet level with the flight trace and the incident plane
// on, over its first five burst rounds: the paced run, and the unpaced
// one under the tightened audit bound (the run that has incidents to
// report).
func TestFigure5SimGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range mustScenarios(t, "fig5") {
		sc.Planes.Introspect, sc.Planes.Incidents = true, true
		sc.HorizonNs = 5e6
		run, err := RunFigure5Sim(sc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", sc.Scheme, RenderFigure5Sim(run))
	}
	checkGolden(t, "fig5sim", b.String())
}

// Byte for byte, the incidents.json that silo-bench -run faultdrill
// -outdir writes (less its meta object); cmd/silo-bench's all.golden
// pins the drill's recovery table.
func TestFailureDrillGolden(t *testing.T) {
	run, err := RunFailureDrill(drill(t))
	if err != nil {
		t.Fatal(err)
	}
	var js strings.Builder
	if err := run.Incidents.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "failuredrill_incidents", js.String())
}
