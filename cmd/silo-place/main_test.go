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

	// Flags that build an invalid guarantee or topology exit 2 before the
	// run, naming what is wrong. A NaN guarantee used to admit every
	// tenant (or, as d, reject every one) and exit 0; a NaN or infinite
	// line rate or oversubscription built NaN- or Inf-rate ports.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bw-mbps", "NaN"}, "-bw-mbps: "},
		{[]string{"-burst-kb", "NaN"}, "-burst-kb: "},
		{[]string{"-bmax-gbps", "NaN"}, "-bmax-gbps: "},
		{[]string{"-delay-ms", "NaN"}, "-delay-ms: "},
		{[]string{"-delay-ms", "Inf"}, "-delay-ms: "},
		{[]string{"-link-gbps", "NaN"}, "LinkBps"},
		{[]string{"-link-gbps", "Inf"}, "LinkBps"},
		{[]string{"-oversub", "NaN"}, "oversubscription"},
		{[]string{"-pods", "0"}, "element counts"},
		// Each tenant spans two fault domains: one VM used to reject every
		// tenant and exit 0, as did -explain with a placer that keeps no
		// journal, and -snapshot-every without -wal was ignored.
		{[]string{"-vms", "1"}, "-vms: must be 0 (drawn sizes) or at least 2"},
		{[]string{"-vms", "-3"}, "-vms: must be 0 (drawn sizes) or at least 2"},
		{[]string{"-algo", "oktopus", "-explain", "-1"}, "-explain requires -algo silo"},
		{[]string{"-snapshot-every", "5"}, "-snapshot-every requires -wal"},
		// A negative request count printed "accepted 0 / -3 tenants", and
		// a tenant the run never offers was explained as if the journal
		// were off; both exited 0.
		{[]string{"-tenants", "-3"}, "-tenants: must be at least 0"},
		{[]string{"-explain", "999", "-tenants", "2"}, "-explain: tenant-999 is never offered: this run offers tenant-1 to tenant-2"},
	} {
		t.Run("refuses "+strings.Join(c.args, " "), func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("error %v, want exit status 2\n%s", err, out)
			}
			if !bytes.Contains(out, []byte(c.want)) {
				t.Errorf("output lacks %q:\n%s", c.want, out)
			}
		})
	}

	// Retired flags exit 2 like any unknown flag: -workers (the scope
	// search runs on the caller's goroutine), the live debug endpoint's
	// -http and -pprof, and -metrics (the Prometheus export).
	for _, args := range [][]string{{"-workers", "2"}, {"-http", ":8080"}, {"-pprof"}, {"-metrics", "-"}} {
		t.Run(strings.TrimPrefix(args[0], "-")+" flag is gone", func(t *testing.T) {
			out, err := exec.Command(bin, args...).CombinedOutput()
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
