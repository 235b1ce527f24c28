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

// versionRE matches the build revision on the "recorded by:" and CSV
// "# run:" provenance lines.
var versionRE = regexp.MustCompile(`(?m)^((?:recorded by:|# run:) tool=\S+ version=)\S+`)

// TestCLI records a trace and an introspection snapshot with silo-sim,
// then pins what silo-trace reads out of them: the roll-up, the slowest
// messages, the per-port table and the SLO windows, and the -why join
// of the slowest packet with the snapshot's margins.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"silo-trace", "silo-sim"} {
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

	// Sampling 1 in 8 keeps the whole run in the recorder's rings, so
	// the delay-bounded tenant's early messages survive to the windows.
	run(t, "silo-sim", "-scheme", "tcp", "-duration", "0.005", "-trace", "trace.json", "-trace-sample", "8",
		"-introspect", "introspect.json")
	top := run(t, "silo-trace", "-top", "3", "-windows", "trace.json")
	golden(t, "top_windows", top)

	m := regexp.MustCompile(`(?m)^pkt (\d+) `).FindSubmatch(top)
	if m == nil {
		t.Fatalf("no slowest message in:\n%s", top)
	}
	golden(t, "why", run(t, "silo-trace", "-top", "0", "-why", string(m[1]), "-margins", "introspect.json", "trace.json"))

	// The live debug endpoint's flags are retired: they exit 2 like
	// any unknown flag.
	for _, args := range [][]string{{"-http", ":8080"}, {"-pprof"}} {
		t.Run(strings.TrimPrefix(args[0], "-")+" flag is gone", func(t *testing.T) {
			out, err := exec.Command(filepath.Join(dir, "silo-trace"), args...).CombinedOutput()
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
