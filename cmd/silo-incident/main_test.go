package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// versionRE matches the build revision on the "recorded by:" and CSV
// "# run:" provenance lines.
var versionRE = regexp.MustCompile(`(?m)^((?:recorded by:|# run:) tool=\S+ version=)\S+`)

// TestCLI writes the failure drill's incidents.json with silo-bench and
// pins silo-incident's three views of it: the incident list, one
// incident's causal timeline, and the CSV export.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"silo-incident", "silo-bench"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "../"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	run := func(t *testing.T, name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, name), args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
		}
		return versionRE.ReplaceAll(out, []byte("${1}V"))
	}
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

	run(t, "silo-bench", "-run", "faultdrill", "-outdir", "drill")
	golden(t, "list", run(t, "silo-incident", "drill/incidents.json"))
	golden(t, "id1", run(t, "silo-incident", "-q", "-id", "1", "drill/incidents.json"))
	golden(t, "csv", run(t, "silo-incident", "-q", "-csv", "-", "drill/incidents.json"))
}
