package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestCLI builds silo-place and pins the stdout of a run whose tenant
// sizes are drawn (-vms 0) and whose every rejection is explained: the
// decisions, the busiest ports and the journal's wording, including the
// explanations that name a server its ports cap at 0 VMs.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "silo-place")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-vms", "0", "-tenants", "60", "-explain", "-1"}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("silo-place %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	for _, want := range []string{"accepted 50 / 60 tenants", "can host only 0 VM(s)"} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	path := filepath.Join("testdata", "explain_rejects.golden")
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

	// The scope search runs on the caller's goroutine; there is no
	// worker count to set.
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
