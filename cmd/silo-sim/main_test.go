package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// summaryRE is the line benchmark/simobs.go parses out of stdout.
var summaryRE = regexp.MustCompile(`(?m)^messages=\d+ completed=\d+ withRTO=\d+ drops=\d+ faultDrops=\d+ voids=\d+$`)

// TestCLI builds silo-sim once and drives it the way the sim_obs
// benchmark workload does.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "silo-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("deterministic", func(t *testing.T) {
		run := func() []byte {
			cmd := exec.Command(bin, "-scheme", "silo", "-racks", "4", "-servers", "10", "-seed", "11", "-duration", "0.005")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("silo-sim: %v\n%s", err, stderr.Bytes())
			}
			return out
		}
		first := run()
		if !summaryRE.Match(first) {
			t.Errorf("no \"messages=… completed=… withRTO=… drops=… faultDrops=… voids=…\" line in:\n%s", first)
		}
		if second := run(); !bytes.Equal(first, second) {
			t.Errorf("two runs of one command line differ:\n--- first ---\n%s--- second ---\n%s", first, second)
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
