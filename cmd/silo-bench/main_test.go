package main

import (
	"bytes"
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

var (
	update = flag.Bool("update", false, "rewrite testdata/all.golden from a -run all run")
	all    = flag.Bool("all", false, "check every -run all experiment against testdata/all.golden, not only fastRuns")
)

// fastRuns, with fig5 and faultdrill, are the -run all experiments
// that take at most about two seconds each, in -run all order; tier-1
// checks them (fig5 and faultdrill in a subtest of their own), and make
// identity (-all) checks the rest too: table1, fig11 and fig16b.
var fastRuns = []string{"fig1", "fig10", "fig12", "fig15", "fig16a", "placeub", "besteffort", "burststress"}

// masks blank the fields of an experiment's stdout that read the wall
// clock, keeping the layout: placeub's latencies and total, and fig10's
// per-frame costs (figure10Point times itself).
var masks = map[string]struct {
	re   *regexp.Regexp
	repl string
}{
	"placeub": {regexp.MustCompile(`\b(mean|p50|p99|max|total)=[0-9.]+(m?s)\b`), "${1}=*${2}"},
	"fig10": {regexp.MustCompile(`(?m)^( +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.e+]+) +[0-9.]+ +[0-9.]+`),
		"${1}" + fmt.Sprintf(" %12s %14s", "*", "*")},
}

// section is one experiment's block of silo-bench's stdout, from its
// "==== name ====" line up to the next one.
type section struct{ name, text string }

var headerRE = regexp.MustCompile(`(?m)^==== (\S+) ====$`)

// sections splits silo-bench's stdout into its experiments' blocks,
// each with its wall-clock fields masked.
func sections(out []byte) []section {
	s := string(out)
	heads := headerRE.FindAllStringSubmatchIndex(s, -1)
	secs := make([]section, len(heads))
	for i, h := range heads {
		end := len(s)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		sec := section{name: s[h[2]:h[3]], text: s[h[0]:end]}
		if m, ok := masks[sec.name]; ok {
			sec.text = m.re.ReplaceAllString(sec.text, m.repl)
		}
		secs[i] = sec
	}
	return secs
}

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

	// checkRuns runs silo-bench -run names and checks its stdout
	// against testdata/all.golden, section by section, wall-clock
	// fields masked; with rewrite it first rewrites the golden from
	// that stdout.
	checkRuns := func(t *testing.T, names []string, rewrite bool) {
		t.Helper()
		got := sections(run(t, "-run", strings.Join(names, ",")))
		path := filepath.Join("testdata", "all.golden")
		if rewrite {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, sec := range got {
				b.WriteString(sec.text)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		want := map[string]string{}
		for _, sec := range sections(golden) {
			want[sec.name] = sec.text
		}
		for _, sec := range got {
			if sec.text != want[sec.name] {
				t.Errorf("-run %s differs from %s (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", sec.name, path, sec.text, want[sec.name])
			}
		}
		n := len(names)
		if names[0] == "all" {
			n = len(want)
		}
		if len(got) != n {
			t.Errorf("-run %s printed %d experiments, want %d", strings.Join(names, ","), len(got), n)
		}
	}

	// The runs in fastRuns (or, under -all or -update, every -run all
	// experiment) against testdata/all.golden; -update rewrites it.
	t.Run("golden runs", func(t *testing.T) {
		names := fastRuns
		if *all || *update {
			names = []string{"all"}
		}
		checkRuns(t, names, *update)
	})

	// Figure 5's placement, packet-level and incident checks, and the
	// failure drill: simulated time only, so their sections of
	// all.golden repeat byte for byte.
	t.Run("golden fig5 faultdrill", func(t *testing.T) {
		checkRuns(t, []string{"fig5", "faultdrill"}, false)
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

	// A flag that no selected experiment reads, and a negative count or
	// duration, exit 2 naming the flag before anything is printed or
	// written.
	for _, c := range []struct {
		name, want string
		args       []string
	}{
		{"refuses flags fig5 does not read", "-duration, -requests, -soak-report: no experiment of -run fig5 reads it",
			[]string{"-run", "fig5", "-requests", "7", "-soak-report", "x.json", "-duration", "3"}},
		{"refuses outdir placeub does not write", "-outdir: no experiment of -run placeub reads it",
			[]string{"-run", "placeub", "-outdir", "out"}},
		{"refuses negative requests", "-requests -5: must not be negative",
			[]string{"-run", "placeub", "-requests", "-5"}},
		{"refuses negative duration", "-duration -1: must not be negative",
			[]string{"-run", "fig12", "-duration", "-1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(bin, c.args...)
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s: error %v, want exit status 2\n%s", strings.Join(c.args, " "), err, stderr.Bytes())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, stderr.Bytes())
			}
			if len(out) != 0 {
				t.Errorf("stdout not empty:\n%s", out)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("left %d files behind, first %s", len(left), left[0].Name())
			}
		})
	}

	// Retired flags exit 2 like any unknown flag: the live debug
	// endpoint's, and -metrics, which only placeub ever registered into.
	for _, args := range [][]string{{"-http", ":8080"}, {"-pprof"}, {"-metrics", "-"}} {
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
