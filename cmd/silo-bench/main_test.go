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

// acceptedRE is the placement run's decision count; its timings vary
// from run to run.
var acceptedRE = regexp.MustCompile(`(?m)^hosts=\d+ requests=\d+ accepted=\d+ `)

// TestCLI builds silo-bench once and pins what it prints.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "silo-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("silo-bench %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}

	// Figure 5's placement, packet-level and incident checks, and the
	// failure drill: simulated time only, so stdout repeats byte for
	// byte.
	t.Run("golden fig5 faultdrill", func(t *testing.T) {
		got := run(t, "-run", "fig5,faultdrill")
		path := filepath.Join("testdata", "fig5_faultdrill.golden")
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
	})

	t.Run("placeub decisions repeat", func(t *testing.T) {
		accepted := func() []byte {
			out := run(t, "-run", "placeub", "-requests", "200")
			m := acceptedRE.Find(out)
			if m == nil {
				t.Fatalf("no \"hosts=… requests=… accepted=…\" line in:\n%s", out)
			}
			return m
		}
		if first, second := accepted(), accepted(); !bytes.Equal(first, second) {
			t.Errorf("two runs admit differently: %q vs %q", first, second)
		}
	})

	// EXPERIMENTS.md quotes this count for the 2,000-request stream on
	// the 100 K-host tree.
	t.Run("placeub admits 1474 of 2000", func(t *testing.T) {
		out := run(t, "-run", "placeub", "-requests", "2000")
		if want := "hosts=100000 requests=2000 accepted=1474 "; !bytes.Contains(out, []byte(want)) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	})

	t.Run("unknown experiment", func(t *testing.T) {
		out, err := exec.Command(bin, "-run", "nope").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-run nope: error %v, want exit status 2\n%s", err, out)
		}
		for _, want := range []string{`unknown experiment "nope"; known:`, " fig5 ", " faultdrill ", " placeub ", " soak "} {
			if !bytes.Contains(out, []byte(want)) {
				t.Errorf("-run nope: output lacks %q:\n%s", want, out)
			}
		}
	})
}
