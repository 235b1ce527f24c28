package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestCLI builds silo-wal and silo-place and pins silo-wal's report over
// stores a seeded silo-place -wal run wrote: a healthy store (snapshot
// plus the segment after it) read with -records, and a store whose log
// lost a middle segment, which silo-wal must flag as safe mode with
// exit status 1, and the committed store in
// internal/placement/durable/testdata/oldstore. The binaries carry no
// VCS stamp, so the snapshot's provenance and with it its size do not
// change from commit to commit.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	build := func(pkg, name string) string {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-buildvcs=false", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	walBin := build(".", "silo-wal")
	placeBin := build("../silo-place", "silo-place")
	run := func(bin string, args ...string) ([]byte, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return out, 0
		case errors.As(err, &exit):
			return out, exit.ExitCode()
		}
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.Bytes())
		return nil, 0
	}
	place := func(store string, snapshotEvery int) {
		t.Helper()
		args := []string{"-tenants", "12", "-vms", "8", "-seed", "3", "-wal", store, "-snapshot-every", fmt.Sprint(snapshotEvery)}
		if out, code := run(placeBin, args...); code != 0 {
			t.Fatalf("silo-place %s: exit %d\n%s", strings.Join(args, " "), code, out)
		}
	}

	// A snapshot every five mutations leaves the last snapshot and the
	// segment written after it.
	place("store", 5)
	got, code := run(walBin, "-records", "store")
	if code != 0 {
		t.Fatalf("healthy store: exit %d\n%s", code, got)
	}
	checkGolden(t, "records.golden", got)
	plain, code := run(walBin, "store")
	if report, _, _ := bytes.Cut(got, []byte("records:\n")); code != 0 || !bytes.Equal(plain, report) {
		t.Errorf("without -records: exit %d and\n%s\nwant exit 0 and the report -records prints first:\n%s", code, plain, report)
	}

	// Without snapshots the whole history is one segment. Cut it into
	// three at record boundaries, as a store that rotated its log twice
	// without collecting would hold it, then delete the middle one.
	place("split", -1)
	segs := splitSegment(t, filepath.Join(dir, "split"), 3)
	if out, code := run(walBin, "split"); code != 0 || !bytes.Contains(out, []byte("verdict: OK")) {
		t.Fatalf("three-segment store: exit %d\n%s", code, out)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	got, code = run(walBin, "split")
	if code != 1 {
		t.Errorf("store with a deleted middle segment: exit %d, want 1", code)
	}
	checkGolden(t, "safe_mode.golden", got)

	// A store written while placement still weighed CPU and memory: its
	// config, snapshot and place records carry the retired fields, and
	// its report must not change.
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
	got, code = run(walBin, "-records", "oldstore")
	if code != 0 {
		t.Errorf("old store: exit %d\n%s", code, got)
	}
	checkGolden(t, "oldstore.golden", got)
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

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
