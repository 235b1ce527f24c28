package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The test binary doubles as the benchmark binary: runAll starts each
// workload as a child of os.Executable(), which under `go test` is this
// binary, and the variable below sends such a child into main().
const childEnv = "SILO_BENCHMARK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Setenv(childEnv, "1")
	os.Exit(m.Run())
}

// -quick runs every workload through both passes in a few seconds:
// every named metric must come out and every output check must hold.
func TestQuickAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	dir := t.TempDir()
	cfg := config{seed: 11, seconds: quickSeconds, reps: 1, quick: true, outDir: dir}
	if err := runAll(cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "report-seed-11.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || len(rep.Workloads) != len(workloads) {
		t.Fatalf("correct=%v with %d of %d workloads", rep.Correct, len(rep.Workloads), len(workloads))
	}
	if rep.GoVersion == "" || rep.NumCPU == 0 || rep.CPUModel == "" || rep.Meta.Tool != "benchmark" {
		t.Errorf("provenance incomplete: %+v", rep)
	}
	for _, w := range rep.Workloads {
		for _, m := range endToEnd {
			if s, ok := w.EndToEnd[m.Name]; !ok || s.Median <= 0 || s.Unit != m.Unit {
				t.Errorf("%s: %s = %+v", w.Name, m.Name, s)
			}
		}
	}
}

// The traced pass reports every per-layer metric, writes its spans and
// charges all CPU time to exactly one layer each; the workload that
// exists to isolate the engine keeps the other layers at zero.
func TestTracedPassIsolatesLayers(t *testing.T) {
	dir := t.TempDir()
	res, det, err := runWorkload(config{seed: 11, seconds: quickSeconds, trace: true, quick: true, outDir: dir}, findWorkload("fabric_raw"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("failures: %v", det.Failures)
	}
	sum := 0.0
	for _, m := range perLayer {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("metric %s = %+v, ok=%v", m.Name, v, ok)
		}
	}
	for _, l := range cpuLayers {
		sum += res.Metrics[l+".cpu_frac"].Value
	}
	if sum < 0.98 || sum > 1.02 {
		t.Errorf("cpu_frac sums to %g", sum)
	}
	for _, zero := range []string{"pacer.cpu_s", "transport.cpu_s", "placement.cpu_s", "pacer.data_frames", "transport.msgs"} {
		if v := res.Metrics[zero].Value; v != 0 {
			t.Errorf("fabric_raw: %s = %g, want 0", zero, v)
		}
	}
	if res.Metrics["netsim.pkt_hops"].Value <= 0 {
		t.Error("no packet-hops counted")
	}
	b, err := os.ReadFile(det.SpanFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) < 4 {
		t.Fatalf("span file: %d spans, %v", len(spans), err)
	}
	for _, s := range spans {
		if s.Workload != "fabric_raw" || s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Fatalf("bad span %+v", s)
		}
	}
}

// The same seed computes the same thing twice; another seed computes
// something else and still passes every check.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"dc_silo", "dc_tcp", "fabric_raw", "place100k", "flow_fig15"} {
		def := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(seed uint64) detail {
				t.Helper()
				res, det, err := runWorkload(config{seed: seed, seconds: quickSeconds, quick: true, outDir: t.TempDir()}, def)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("seed %d: %v", seed, det.Failures)
				}
				return det
			}
			a, b, c := run(11), run(11), run(12)
			if a.SimDigest == "" || a.SimDigest != b.SimDigest || !reflect.DeepEqual(a.Exact, b.Exact) {
				t.Errorf("seed 11 twice gave %q %v and %q %v", a.SimDigest, a.Exact, b.SimDigest, b.Exact)
			}
			if a.SimDigest == c.SimDigest {
				t.Errorf("seeds 11 and 12 gave the same digest %s", a.SimDigest)
			}
		})
	}
}
