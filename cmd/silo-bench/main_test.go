package main

import (
	"bytes"
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

var (
	update = flag.Bool("update", false, "rewrite testdata/all.golden and testdata/csv.golden from a -run all run")
	all    = flag.Bool("all", false, "check every -run all experiment against testdata/all.golden, not only fastRuns")
)

// fastRuns, with fig5 and faultdrill, are the -run all experiments
// that take at most about two seconds each, in -run all order; tier-1
// checks their stdout and CSVs (fig5 and faultdrill in a subtest of
// their own), and make identity (-all) checks the rest too: table1,
// fig11 and fig16b.
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

// runOf names the experiment a golden section belongs to: its
// name up to the first "_" or ".", and fig12 for the CSVs of Figures 13
// and 14 and Table 4, which it writes too.
func runOf(section string) string {
	name, _, _ := strings.Cut(strings.SplitN(section, "_", 2)[0], ".")
	switch name {
	case "fig13", "fig14", "table4":
		return "fig12"
	}
	return name
}

// acceptedRE is the placement run's decision count; its timings vary
// from run to run.
var acceptedRE = regexp.MustCompile(`(?m)^hosts=\d+ requests=\d+ accepted=\d+ `)

// csvSections reads every CSV in dir but fig10.csv, whose per-frame
// costs read the wall clock, as one "==== name ====" section each in
// file-name order, less the "# run:" provenance line.
func csvSections(t *testing.T, dir string) []section {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var secs []section
	for _, f := range files {
		name := filepath.Base(f)
		if name == "fig10.csv" {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if strings.HasPrefix(text, "# run:") {
			_, text, _ = strings.Cut(text, "\n")
		}
		secs = append(secs, section{name: name, text: "==== " + name + " ====\n" + text})
	}
	return secs
}

// checkSections compares the sections a -run names wrote with those of
// testdata/<file>: every section must match its golden one, and every
// golden section of a selected experiment must be there (an
// experiment's own section, or a CSV it writes). With rewrite it first
// rewrites the golden from got.
func checkSections(t *testing.T, file string, names []string, got []section, rewrite bool) {
	t.Helper()
	path := filepath.Join("testdata", file)
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
	selected := map[string]bool{}
	for _, name := range names {
		selected[name] = true
	}
	seen := map[string]bool{}
	for _, sec := range got {
		seen[sec.name] = true
	}
	want := map[string]string{}
	for _, sec := range sections(golden) {
		want[sec.name] = sec.text
		if run := runOf(sec.name); (selected["all"] || selected[run]) && !seen[sec.name] {
			t.Errorf("-run %s wrote no %s section of %s", strings.Join(names, ","), sec.name, path)
		}
	}
	for _, sec := range got {
		if w, ok := want[sec.name]; !ok || sec.text != w {
			t.Errorf("-run %s: %s differs from %s (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", strings.Join(names, ","), sec.name, path, sec.text, w)
		}
	}
}

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

	// checkRuns runs silo-bench -run names -outdir and checks its stdout
	// against testdata/all.golden, section by section, wall-clock fields
	// masked, and the CSVs it writes against testdata/csv.golden; with
	// rewrite it first rewrites both goldens from that run.
	checkRuns := func(t *testing.T, names []string, rewrite bool) {
		t.Helper()
		dir := t.TempDir()
		out := run(t, "-run", strings.Join(names, ","), "-outdir", dir)
		// all.golden is stdout without -outdir: drop the lines naming
		// the files written there.
		out = regexp.MustCompile(`(?m)^.* written to `+regexp.QuoteMeta(dir)+`.*\n`).ReplaceAll(out, nil)
		got := sections(out)
		checkSections(t, "all.golden", names, got, rewrite)
		checkSections(t, "csv.golden", names, csvSections(t, dir), rewrite)
	}

	// The runs in fastRuns (or, under -all or -update, every -run all
	// experiment) against testdata/all.golden and csv.golden; -update
	// rewrites both.
	t.Run("golden runs", func(t *testing.T) {
		names := fastRuns
		if *all || *update {
			names = []string{"all"}
		}
		checkRuns(t, names, *update)
	})

	// Figure 5's placement, packet-level and incident checks, and the
	// failure drill: simulated time only, so their sections of
	// all.golden and the drill's CSV repeat byte for byte.
	t.Run("golden fig5 faultdrill", func(t *testing.T) {
		checkRuns(t, []string{"fig5", "faultdrill"}, false)
	})

	// The drill's artifacts name the seed it ran, its default 42 when
	// -seed is absent: the incident report's meta and the CSV's "# run:"
	// line.
	t.Run("faultdrill stamps its default seed", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "d")
		run(t, "-run", "faultdrill", "-outdir", dir)
		b, err := os.ReadFile(filepath.Join(dir, "incidents.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Meta struct {
				Seed int64 `json:"seed"`
			} `json:"meta"`
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Meta.Seed != 42 {
			t.Errorf("incidents.json meta seed = %d, want 42", rep.Meta.Seed)
		}
		csv, err := os.ReadFile(filepath.Join(dir, "faultdrill.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if first, _, _ := strings.Cut(string(csv), "\n"); !strings.HasPrefix(first, "# run:") || !strings.Contains(first+" ", " seed=42 ") {
			t.Errorf("faultdrill.csv's first line %q lacks seed=42", first)
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
