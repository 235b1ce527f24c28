package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// versionRE matches the build revision on the "recorded by:" provenance
// line.
var versionRE = regexp.MustCompile(`(?m)^(recorded by: tool=\S+ version=)\S+`)

// TestCLI writes the failure drill's incidents.json with silo-bench and
// pins silo-incident's two views of it: the incident list and one
// incident's causal timeline.
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

	// Retired flags exit 2 like any unknown flag: the live debug
	// endpoint's, and the re-exports the report's JSON already carries.
	for _, args := range [][]string{{"-http", ":8080"}, {"-pprof"}, {"-csv", "-"}, {"-json", "-"}, {"-metrics", "-"}} {
		t.Run(strings.TrimPrefix(args[0], "-")+" flag is gone", func(t *testing.T) {
			out, err := exec.Command(filepath.Join(dir, "silo-incident"), args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s: error %v, want exit status 2\n%s", args[0], err, out)
			}
			if want := "flag provided but not defined: " + args[0]; !bytes.Contains(out, []byte(want)) {
				t.Errorf("%s: output lacks %q:\n%s", args[0], want, out)
			}
		})
	}
}
