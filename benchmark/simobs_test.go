package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const siloSimStdout = `recovered 0 tenants
scheme=Silo  tenantA=9 VMs all-to-one (5000 B bursts)  tenantB=9 VMs shuffle
messages=1384 completed=1380 withRTO=2 drops=3 faultDrops=1 voids=2147411
latency (µs): n=1384 min=36 p50=39.9 p95=45.5 p99=76.6 p99.9=81.5 max=81.5 µs
`

func TestParseSimSummary(t *testing.T) {
	got, err := parseSimSummary([]byte(siloSimStdout))
	if err != nil {
		t.Fatal(err)
	}
	if want := (simSummary{1384, 1380, 2, 3, 1, 2147411}); got != want {
		t.Errorf("summary = %+v, want %+v", got, want)
	}
	if _, err := parseSimSummary([]byte("scheme=Silo\nlatency (µs): n=0\n")); err == nil {
		t.Error("output without a messages= line parsed")
	}
}

// fakeSim writes a stand-in for silo-sim that prints out and exits
// with code.
func fakeSim(t *testing.T, out string, code int) *simObsInst {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "silo-sim")
	script := "#!/bin/sh\ncat <<'EOF'\n" + out + "EOF\necho boom >&2\nexit " + string(rune('0'+code)) + "\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return &simObsInst{bin: bin, dir: dir, seed: 11, duration: 0.01}
}

func TestSimObsExitCode(t *testing.T) {
	e := &env{}
	if _, err := fakeSim(t, siloSimStdout, 3).exec(e, "cli.all", 0.01, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("exit 3 gave err = %v, want one carrying stderr", err)
	}
	r, err := fakeSim(t, siloSimStdout, 0).exec(e, "cli.all", 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(r.stdout), "messages=1384") || r.wallS <= 0 {
		t.Errorf("run = %+v", r)
	}
}

// A run whose output reports incomplete messages, drops, or artifacts
// that do not parse fails every check it should.
func TestSimObsFinishChecks(t *testing.T) {
	e := &env{}
	in := fakeSim(t, siloSimStdout, 0)
	in.run(e)
	if err := os.WriteFile(filepath.Join(in.dir, "trace.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &outcome{layer: map[string]float64{}}
	in.finish(e, o)
	joined := strings.Join(o.failures, "\n")
	for _, want := range []string{"completed 1380 of 1384", "3 drops, 1 fault drops", "trace.json is not valid JSON", "artifact series.json"} {
		if !strings.Contains(joined, want) {
			t.Errorf("failures lack %q:\n%s", want, joined)
		}
	}
	if o.attempted != 1384 || o.failed < 4 {
		t.Errorf("attempted=%d failed=%d", o.attempted, o.failed)
	}
}

func TestSimObsArgs(t *testing.T) {
	in := &simObsInst{dir: "d", seed: 12}
	bare := strings.Join(in.args(0.5, nil), " ")
	if bare != "-scheme silo -racks 4 -servers 10 -seed 12 -duration 0.5" {
		t.Errorf("bare args = %q", bare)
	}
	all := strings.Join(in.args(0.5, obsPlanes), " ")
	for _, want := range []string{"-trace d/trace.json -trace-sample 1", "-slo-report", "-series d/series.json", "-incidents d/incidents.json", "-introspect d/introspect.json"} {
		if !strings.Contains(all, want) {
			t.Errorf("all-planes args lack %q: %s", want, all)
		}
	}
}
