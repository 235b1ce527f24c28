package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// summaryRE is the line benchmark/simobs.go parses out of stdout.
var summaryRE = regexp.MustCompile(`(?m)^messages=\d+ completed=\d+ withRTO=\d+ drops=\d+ faultDrops=\d+ voids=\d+$`)

// versionRE matches the build revision in an artifact's meta object, the
// one field that differs between otherwise identical runs.
var versionRE = regexp.MustCompile(`("version": ?")[^"]*"`)

// planeArtifacts are the files one run with every plane writes, with the
// flags that ask for them (relative paths, so meta.flags is the same in
// every working directory).
var planeArtifacts = []struct{ file, flag string }{
	{"trace.json", "-trace"},
	{"series.json", "-series"},
	{"incidents.json", "-incidents"},
	{"introspect.json", "-introspect"},
	{"metrics.prom", "-metrics"},
}

// engineCounterPrefix names the engine's own counters (netsim.SimCounters):
// how the simulator did its work, not what it simulated.
const engineCounterPrefix = "silo_runtime_"

// splitEngineCounters returns an artifact with the engine counters taken
// out, and those counters as readable lines. The counters move whenever
// the engine changes how it queues events or recycles packets while
// every simulated byte stays put; hashing them apart keeps the artifact
// hashes about the simulation.
func splitEngineCounters(t *testing.T, file string, b []byte) (rest []byte, engine string) {
	t.Helper()
	var eng strings.Builder
	switch file {
	case "metrics.prom":
		var kept bytes.Buffer
		for _, line := range strings.SplitAfter(string(b), "\n") {
			switch {
			case strings.HasPrefix(line, engineCounterPrefix):
				fmt.Fprintf(&eng, "%s %s", file, line)
			case strings.HasPrefix(line, "# HELP "+engineCounterPrefix), strings.HasPrefix(line, "# TYPE "+engineCounterPrefix):
			default:
				kept.WriteString(line)
			}
		}
		return kept.Bytes(), eng.String()
	case "series.json":
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		rt, err := json.MarshalIndent(doc["runtime"], "", " ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&eng, "%s runtime %s\n", file, rt)
		delete(doc, "runtime")
		series, _ := doc["series"].([]any)
		kept := series[:0]
		for _, s := range series {
			m, _ := s.(map[string]any)
			name, _ := m["Name"].(string)
			if !strings.HasPrefix(name, engineCounterPrefix) {
				kept = append(kept, s)
				continue
			}
			vals, _ := m["Values"].([]any)
			if len(vals) == 0 {
				fmt.Fprintf(&eng, "%s series %s n=0\n", file, name)
				continue
			}
			fmt.Fprintf(&eng, "%s series %s n=%d first=%v last=%v\n", file, name, len(vals), vals[0], vals[len(vals)-1])
		}
		doc["series"] = kept
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out, eng.String()
	}
	return b, ""
}

// TestCLI builds silo-sim once and drives it the way the sim_obs
// benchmark workload does.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "silo-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	runIn := func(t *testing.T, dir string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("silo-sim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}
	run := func(t *testing.T, args ...string) []byte {
		t.Helper()
		return runIn(t, "", args...)
	}
	// golden compares stdout with testdata/<name>.golden; -update
	// rewrites the file first.
	golden := func(t *testing.T, name string, got []byte) {
		t.Helper()
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stdout differs from %s (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
	}

	t.Run("deterministic", func(t *testing.T) {
		args := []string{"-scheme", "silo", "-racks", "4", "-servers", "10", "-seed", "11", "-duration", "0.005"}
		first := run(t, args...)
		if !summaryRE.Match(first) {
			t.Errorf("no \"messages=… completed=… withRTO=… drops=… faultDrops=… voids=…\" line in:\n%s", first)
		}
		if second := run(t, args...); !bytes.Equal(first, second) {
			t.Errorf("two runs of one command line differ:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
	})

	// Every scheme's stdout, pinned: the deploy → coordinate → drive
	// order decides tie-breaks in the engine.
	for _, scheme := range []string{"silo", "tcp", "dctcp", "hull", "okto", "okto+"} {
		scheme := scheme
		t.Run("golden "+scheme, func(t *testing.T) {
			golden(t, "scheme_"+strings.ReplaceAll(scheme, "+", "plus"), run(t, "-scheme", scheme, "-duration", "0.005"))
		})
	}

	// A ToR dies and comes back: fault drops, control-plane recovery of
	// both tenants, the SLO report's in-fault column.
	t.Run("golden fault", func(t *testing.T) {
		golden(t, "fault", run(t, "-scheme", "silo", "-duration", "0.005",
			"-fault", "t=2ms switch tor0 down; t=4ms up", "-slo-report"))
	})

	// Every observation plane at once: stdout, and each artifact's sha256
	// with meta.version blanked and the engine counters taken out; those
	// are pinned as plain values in planes_<name>_engine.golden. The silo
	// run pins the VM-enqueue and token-admit events, the tcp run
	// introspection's NIC-arrival estimator, the fault run the incident
	// plane's verdicts.
	for _, c := range []struct {
		name string
		args []string
	}{
		{"silo", []string{"-scheme", "silo"}},
		{"tcp", []string{"-scheme", "tcp"}},
		{"fault", []string{"-scheme", "silo", "-fault", "t=2ms switch tor0 down; t=4ms up"}},
	} {
		c := c
		t.Run("golden planes "+c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(c.args, "-duration", "0.005", "-trace-sample", "1", "-slo-report")
			for _, a := range planeArtifacts {
				args = append(args, a.flag, a.file)
			}
			golden(t, "planes_"+c.name, runIn(t, dir, args...))
			var sums, engine bytes.Buffer
			for _, a := range planeArtifacts {
				b, err := os.ReadFile(filepath.Join(dir, a.file))
				if err != nil {
					t.Fatal(err)
				}
				rest, eng := splitEngineCounters(t, a.file, versionRE.ReplaceAll(b, []byte(`${1}"`)))
				fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(rest), a.file)
				engine.WriteString(eng)
			}
			golden(t, "planes_"+c.name+"_artifacts", sums.Bytes())
			golden(t, "planes_"+c.name+"_engine", engine.Bytes())
		})
	}

	t.Run("unknown scheme", func(t *testing.T) {
		out, err := exec.Command(bin, "-scheme", "nope").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-scheme nope: error %v, want exit status 2\n%s", err, out)
		}
		if want := `unknown scheme "nope"`; !bytes.Contains(out, []byte(want)) {
			t.Errorf("-scheme nope: output lacks %q:\n%s", want, out)
		}
	})

	t.Run("workers flag is gone", func(t *testing.T) {
		out, err := exec.Command(bin, "-workers", "2").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-workers 2: error %v, want exit status 2\n%s", err, out)
		}
		if want := "flag provided but not defined: -workers"; !bytes.Contains(out, []byte(want)) {
			t.Errorf("-workers 2: output lacks %q:\n%s", want, out)
		}
	})
}
