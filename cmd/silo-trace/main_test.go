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

	// failWith runs silo-trace in dir and wants the exit status and a
	// line of output.
	failWith := func(t *testing.T, code int, want string, args ...string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, "silo-trace"), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != code {
			t.Fatalf("silo-trace %s: error %v, want exit status %d\n%s", strings.Join(args, " "), err, code, out)
		}
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("silo-trace %s: output lacks %q:\n%s", strings.Join(args, " "), want, out)
		}
	}

	// Retired flags exit 2 like any unknown flag: the live debug
	// endpoint's, and -metrics, whose gauges repeated the summary line.
	for _, args := range [][]string{{"-http", ":8080"}, {"-pprof"}, {"-metrics", "-"}} {
		t.Run(strings.TrimPrefix(args[0], "-")+" flag is gone", func(t *testing.T) {
			failWith(t, 2, "flag provided but not defined: "+args[0], args...)
		})
	}

	// A window narrower than 1 ns is refused, not replaced.
	for _, w := range []struct{ arg, shown string }{{"0", "0"}, {"-5", "-5"}, {"1e-7", "1e-07"}} {
		t.Run("window "+w.arg, func(t *testing.T) {
			failWith(t, 2, "-window: must be > 0, got "+w.shown, "-windows", "-window", w.arg, "trace.json")
		})
	}

	// Only Chrome trace JSON is a recording; a CSV file is refused by
	// name.
	t.Run("csv trace", func(t *testing.T) {
		if err := os.WriteFile(filepath.Join(dir, "trace.csv"), []byte("pkt,total_ns,complete\n1,100,1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		failWith(t, 1, "trace.csv: not a silo trace", "trace.csv")
	})
}
