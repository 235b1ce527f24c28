package main

import (
	"bytes"
	"encoding/binary"
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

	"repro/internal/placement/durable"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// versionRE matches the build revision on the "recorded by:" provenance
// line.
var versionRE = regexp.MustCompile(`(?m)^(recorded by: tool=\S+ version=)\S+`)

// TestCLI builds silo-inspect and the programs whose artifacts it
// reads, records those artifacts in a temp dir, and pins each
// subcommand's stdout against testdata/*.golden and its refusals by
// exit status and message. The binaries carry no VCS stamp, so a
// store's snapshot provenance, and with it its size, does not change
// from commit to commit.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	bin := map[string]string{}
	for _, name := range []string{"silo-inspect", "silo-sim", "silo-bench", "silo-place"} {
		bin[name] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-buildvcs=false", "-o", bin[name], "../"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	// status runs a binary in dir and returns its stdout, with the build
	// revision masked, and its exit status.
	status := func(t *testing.T, name string, args ...string) ([]byte, int) {
		t.Helper()
		cmd := exec.Command(bin[name], args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		out = versionRE.ReplaceAll(out, []byte("${1}V"))
		var exit *exec.ExitError
		switch {
		case err == nil:
			return out, 0
		case errors.As(err, &exit):
			return out, exit.ExitCode()
		}
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
		return nil, 0
	}
	// run wants exit status 0.
	run := func(t *testing.T, name string, args ...string) []byte {
		t.Helper()
		out, code := status(t, name, args...)
		if code != 0 {
			t.Fatalf("%s %s: exit status %d\n%s", name, strings.Join(args, " "), code, out)
		}
		return out
	}
	// failWith runs silo-inspect and wants the exit status, a line of
	// stderr and nothing on stdout: a refusal comes before any report.
	failWith := func(t *testing.T, code int, want string, args ...string) {
		t.Helper()
		cmd := exec.Command(bin["silo-inspect"], args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != code {
			t.Fatalf("silo-inspect %s: error %v, want exit status %d\n%s%s", strings.Join(args, " "), err, code, out, stderr.Bytes())
		}
		if len(out) > 0 {
			t.Errorf("silo-inspect %s: stdout before the refusal:\n%s", strings.Join(args, " "), out)
		}
		if !bytes.Contains(stderr.Bytes(), []byte(want)) {
			t.Errorf("silo-inspect %s: stderr lacks %q:\n%s", strings.Join(args, " "), want, stderr.Bytes())
		}
	}
	// retired checks that flags a subcommand no longer has exit 2 like
	// any unknown flag.
	retired := func(t *testing.T, sub string, flags ...[]string) {
		for _, args := range flags {
			t.Run(strings.TrimPrefix(args[0], "-")+" flag is gone", func(t *testing.T) {
				failWith(t, 2, "flag provided but not defined: "+args[0], append([]string{sub}, args...)...)
			})
		}
	}

	// A missing or unknown subcommand exits 2 naming the three.
	t.Run("no subcommand", func(t *testing.T) {
		failWith(t, 2, "usage: silo-inspect trace|incident|wal")
	})
	t.Run("unknown subcommand", func(t *testing.T) {
		failWith(t, 2, `unknown subcommand "explain" (want trace, incident or wal)`, "explain", "x.json")
	})

	// trace: a trace and an introspection snapshot recorded by silo-sim,
	// read back as the roll-up, the slowest messages, the per-port table
	// and the 1 ms windows, and the -why join of the slowest packet with
	// the snapshot's margins.
	t.Run("trace", func(t *testing.T) {
		// Sampling 1 in 8 keeps the whole run in the recorder's rings, so
		// the delay-bounded tenant's early messages survive to the windows.
		run(t, "silo-sim", "-scheme", "tcp", "-duration", "0.005", "-trace", "trace.json", "-trace-sample", "8",
			"-introspect", "introspect.json")
		top := run(t, "silo-inspect", "trace", "-top", "3", "-windows", "trace.json")
		golden(t, "top_windows", top)

		m := regexp.MustCompile(`(?m)^pkt (\d+) `).FindSubmatch(top)
		if m == nil {
			t.Fatalf("no slowest message in:\n%s", top)
		}
		golden(t, "why", run(t, "silo-inspect", "trace", "-top", "0", "-why", string(m[1]), "-margins", "introspect.json", "trace.json"))

		// A DCTCP run long enough to record a delay-bound violation: the
		// violation drill-down with its culprit port, and the per-port
		// table cut to three rows.
		run(t, "silo-sim", "-scheme", "dctcp", "-duration", "0.05", "-trace", "dctcp.json", "-trace-sample", "8")
		viol := run(t, "silo-inspect", "trace", "-top", "0", "-ports", "3", "dctcp.json")
		for _, want := range []string{"delay-bound violations ==", "  culprit: ", "more ports\n"} {
			if !bytes.Contains(viol, []byte(want)) {
				t.Errorf("-top 0 -ports 3 lacks %q:\n%s", want, viol)
			}
		}
		golden(t, "violations", viol)

		// Retired flags: the live debug endpoint's, -metrics, whose gauges
		// repeated the summary line, and -window: -windows buckets by the
		// one 1 ms window every program uses.
		retired(t, "trace", []string{"-http", ":8080"}, []string{"-pprof"}, []string{"-metrics", "-"}, []string{"-window", "2"})

		// -why without the snapshot it joins against is refused before the
		// trace is read.
		t.Run("why without margins", func(t *testing.T) {
			failWith(t, 2, "-why needs -margins <file>", "trace", "-why", string(m[1]), "trace.json")
		})

		// Only Chrome trace JSON is a recording; a CSV file is refused by
		// name.
		t.Run("csv trace", func(t *testing.T) {
			if err := os.WriteFile(filepath.Join(dir, "trace.csv"), []byte("pkt,total_ns,complete\n1,100,1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			failWith(t, 1, "trace.csv: not a silo trace", "trace", "trace.csv")
		})
	})

	// incident: the failure drill's incidents.json, written by
	// silo-bench, read back as the incident list and one incident's
	// causal timeline.
	t.Run("incident", func(t *testing.T) {
		run(t, "silo-bench", "-run", "faultdrill", "-outdir", "drill")
		golden(t, "list", run(t, "silo-inspect", "incident", "drill/incidents.json"))
		golden(t, "id1", run(t, "silo-inspect", "incident", "-q", "-id", "1", "drill/incidents.json"))

		// An incident the report does not hold is a usage error.
		t.Run("id not found", func(t *testing.T) {
			failWith(t, 2, "incident 99: not found (1 incidents in report)", "incident", "-q", "-id", "99", "drill/incidents.json")
		})

		// Retired flags: the live debug endpoint's, and the re-exports
		// the report's JSON already carries.
		retired(t, "incident", []string{"-http", ":8080"}, []string{"-pprof"}, []string{"-csv", "-"},
			[]string{"-json", "-"}, []string{"-metrics", "-"})
	})

	// wal: stores a seeded silo-place -wal run wrote. A healthy store
	// (snapshot plus the segment after it) read with -records, a store
	// whose log lost a middle segment, which must read as safe mode with
	// exit status 1, and the committed store in
	// internal/placement/durable/testdata/oldstore.
	t.Run("wal", func(t *testing.T) {
		place := func(store string, snapshotEvery int) {
			t.Helper()
			run(t, "silo-place", "-tenants", "12", "-vms", "8", "-seed", "3", "-wal", store, "-snapshot-every", fmt.Sprint(snapshotEvery))
		}

		// A snapshot every five mutations leaves the last snapshot and
		// the segment written after it.
		place("store", 5)
		got := run(t, "silo-inspect", "wal", "-records", "store")
		golden(t, "records", got)
		plain, code := status(t, "silo-inspect", "wal", "store")
		if report, _, _ := bytes.Cut(got, []byte("records:\n")); code != 0 || !bytes.Equal(plain, report) {
			t.Errorf("without -records: exit %d and\n%s\nwant exit 0 and the report -records prints first:\n%s", code, plain, report)
		}

		// -json is the same report as a durable.InspectReport: it decodes
		// with no unknown field and encodes back to the same bytes.
		js := run(t, "silo-inspect", "wal", "-json", "store")
		golden(t, "wal_json", js)
		dec := json.NewDecoder(bytes.NewReader(js))
		dec.DisallowUnknownFields()
		var rep durable.InspectReport
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("-json does not decode into durable.InspectReport: %v", err)
		}
		var again bytes.Buffer
		enc := json.NewEncoder(&again)
		enc.SetIndent("", " ")
		if err := enc.Encode(&rep); err != nil {
			t.Fatal(err)
		}
		if !rep.OK() || rep.FinalSeq != 12 || !bytes.Equal(again.Bytes(), js) {
			t.Errorf("-json round trip: OK %v, final seq %d (want 12), re-encoded:\n%s", rep.OK(), rep.FinalSeq, again.Bytes())
		}

		// Without snapshots the whole history is one segment. Cut it into
		// three at record boundaries, as a store that rotated its log
		// twice without collecting would hold it, then delete the middle
		// one.
		place("split", -1)
		segs := splitSegment(t, filepath.Join(dir, "split"), 3)
		if out := run(t, "silo-inspect", "wal", "split"); !bytes.Contains(out, []byte("verdict: OK")) {
			t.Fatalf("three-segment store:\n%s", out)
		}
		if err := os.Remove(segs[1]); err != nil {
			t.Fatal(err)
		}
		got, code = status(t, "silo-inspect", "wal", "split")
		if code != 1 {
			t.Errorf("store with a deleted middle segment: exit %d, want 1", code)
		}
		golden(t, "safe_mode", got)

		// A store written while placement still weighed CPU and memory:
		// its config, snapshot and place records carry the retired
		// fields, and its report must not change.
		old := filepath.Join(dir, "oldstore")
		if err := os.Mkdir(old, 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join("..", "..", "internal", "placement", "durable", "testdata", "oldstore", "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("old store files: %v (%v)", files, err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(old, filepath.Base(f)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden(t, "oldstore", run(t, "silo-inspect", "wal", "-records", "oldstore"))
	})
}

// golden compares got with testdata/NAME.golden, or rewrites the file
// under -update.
func golden(t *testing.T, name string, got []byte) {
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

// splitSegment cuts a store's only WAL segment into n segments of
// consecutive records, each named after its first record's seq, and
// returns their paths in order. Records are framed as u32 payload
// length | u32 CRC | payload, and a payload starts with its u64 seq.
func splitSegment(t *testing.T, store string, n int) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(store, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want one segment in %s, found %v (%v)", store, matches, err)
	}
	b, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for off := 0; off < len(b); off += 8 + int(binary.LittleEndian.Uint32(b[off:])) {
		starts = append(starts, off)
	}
	if len(starts) < n {
		t.Fatalf("%d records cannot make %d segments", len(starts), n)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	starts = append(starts, len(b))
	records := len(starts) - 1
	var paths []string
	for k := 0; k < n; k++ {
		from, to := starts[k*records/n], starts[(k+1)*records/n]
		seq := binary.LittleEndian.Uint64(b[from+8:])
		path := filepath.Join(store, fmt.Sprintf("wal-%016x.log", seq))
		if err := os.WriteFile(path, b[from:to], 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}
